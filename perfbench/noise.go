package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// Host-noise diagnostics. They are printed beside each run to explain
// a slow one; no measurement is ever scaled, filtered or repeated on
// their account.

// stealTicks reads the cumulative steal time of all CPUs from
// /proc/stat, in USER_HZ ticks; -1 when unavailable.
func stealTicks() int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// refSink keeps the reference loop's result alive.
var refSink uint64

// refLoop times a fixed register-only loop (xorshift, no memory
// traffic). On a quiet host it takes the same time on every run; a
// slower reading means the CPU itself was contended.
func refLoop() time.Duration {
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < 30_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(t0)
	refSink += x
	return d
}
