//go:build !race

package vm

const poisonOnFree = false
