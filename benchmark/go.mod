module aurora/benchmark

go 1.22

require aurora v0.0.0

replace aurora => ../
