package storage

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"
)

// TestChargeReadBillsLikeReadAt: on every device that charges reads
// without copying — a MemDevice, an Array, a FaultDevice, each as built
// and as a clock-redirected view — ChargeRead(n, off) returns what
// ReadAt of n bytes at off returns, and leaves the device counters, the
// clocks, the fault schedule and the fault log exactly as ReadAt does:
// for reads of 1, 4096 and 164 KiB, an injected error among them.
func TestChargeReadBillsLikeReadAt(t *testing.T) {
	type rig struct {
		dev   Device
		clock *Clock // the clock the device was built on
		lane  *Clock // the clock reads are charged to
		fault *FaultDevice
	}
	kinds := map[string]func(c *Clock) (Device, *FaultDevice){
		"mem":   func(c *Clock) (Device, *FaultDevice) { return NewMemDevice(ParamsOptaneNVMe, c), nil },
		"array": func(c *Clock) (Device, *FaultDevice) { return NewOptaneArray(4, c), nil },
		"fault": func(c *Clock) (Device, *FaultDevice) {
			fd := NewFaultDevice(NewOptaneArray(4, c), c, FaultConfig{
				Seed: 7, ReadErr: 0.2, BitRot: 0.2, SpikeProb: 0.2, SpikeCost: 3 * time.Microsecond})
			fd.FailOps(FaultRead, 2, 2) // an injected error whatever the draws
			fd.SetLogging(true)
			return fd, fd
		},
	}
	build := func(kind string, redirect bool) rig {
		c := NewClock()
		dev, fd := kinds[kind](c)
		if _, err := dev.WriteAt(make([]byte, 200<<10), 0); err != nil {
			t.Fatal(err)
		}
		r := rig{dev: dev, clock: c, lane: c, fault: fd}
		if redirect {
			r.lane = NewClock()
			r.dev = Redirect(dev, r.lane)
		}
		return r
	}
	for _, kind := range []string{"mem", "array", "fault"} {
		for _, redirect := range []bool{false, true} {
			name := kind
			if redirect {
				name += "/redirected"
			}
			t.Run(name, func(t *testing.T) {
				read, charge := build(kind, redirect), build(kind, redirect)
				if _, ok := charge.dev.(ReadCharger); !ok {
					t.Fatalf("%T does not charge reads without a copy", charge.dev)
				}
				injected := false
				for i := 0; i < 4; i++ {
					for _, n := range []int{1, 4096, 164 << 10} {
						off := int64(i * 12345)
						want, werr := read.dev.ReadAt(make([]byte, n), off)
						got, gerr := ChargeRead(charge.dev, n, off)
						if got != want || (werr == nil) != (gerr == nil) || errors.Is(werr, ErrInjected) != errors.Is(gerr, ErrInjected) {
							t.Fatalf("read %d of %d bytes at %d: ChargeRead = %v, %v; ReadAt = %v, %v", i, n, off, got, gerr, want, werr)
						}
						injected = injected || errors.Is(werr, ErrInjected)
					}
				}
				if kind == "fault" && !injected {
					t.Fatal("fixture: no read drew an injected error")
				}
				if gs, ws := charge.dev.Stats(), read.dev.Stats(); gs != ws {
					t.Errorf("device stats: ChargeRead %+v, ReadAt %+v", gs, ws)
				}
				if charge.clock.Now() != read.clock.Now() || charge.lane.Now() != read.lane.Now() {
					t.Errorf("clocks: ChargeRead %v/%v, ReadAt %v/%v", charge.clock.Now(), charge.lane.Now(), read.clock.Now(), read.lane.Now())
				}
				if read.fault != nil {
					gl, wl := charge.fault.Log(), read.fault.Log()
					if !slices.EqualFunc(gl, wl, func(a, b FaultOp) bool { return fmt.Sprint(a) == fmt.Sprint(b) }) {
						t.Errorf("fault log: ChargeRead %v, ReadAt %v", gl, wl)
					}
					if charge.fault.InjectedCount() != read.fault.InjectedCount() || charge.fault.OpCount() != read.fault.OpCount() {
						t.Errorf("fault schedule: ChargeRead %d injected of %d ops, ReadAt %d of %d",
							charge.fault.InjectedCount(), charge.fault.OpCount(), read.fault.InjectedCount(), read.fault.OpCount())
					}
				}
			})
		}
	}
}

// TestPeekBillsNothing: Peek copies out what the media holds — through
// an array's stripes, past a fault layer that would rot or fail the
// read, on a clock-redirected view — and moves no clock, counter or
// fault schedule. Closed devices and ones without the capability say so.
func TestPeekBillsNothing(t *testing.T) {
	c := NewClock()
	fd := NewFaultDevice(NewOptaneArray(4, c), c, FaultConfig{Seed: 3, ReadErr: 1, BitRot: 1})
	data := make([]byte, 150<<10)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if _, err := fd.WriteAt(data, 5000); err != nil {
		t.Fatal(err)
	}
	lane := NewClock()
	for _, dev := range []Device{fd, Redirect(fd, lane)} {
		now, laneNow, stats, ops := c.Now(), lane.Now(), dev.Stats(), fd.OpCount()
		got := make([]byte, len(data))
		if !Peek(dev, got, 5000) || !slices.Equal(got, data) {
			t.Fatal("Peek did not copy out what was written")
		}
		if c.Now() != now || lane.Now() != laneNow || dev.Stats() != stats || fd.OpCount() != ops {
			t.Fatal("Peek billed, counted or drew from the fault schedule")
		}
	}
	md := NewMemDevice(ParamsOptaneNVMe, c)
	md.Close()
	if Peek(md, make([]byte, 8), 0) {
		t.Fatal("a closed device peeked")
	}
	if Peek(struct{ Device }{md}, make([]byte, 8), 0) {
		t.Fatal("a device without Peeker peeked")
	}
}
