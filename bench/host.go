package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostSample is what the process and the host had consumed at one moment.
// The difference of two samples tells a slow run that the program caused
// (more CPU time, more page faults) from one the host caused (involuntary
// context switches, time stolen by other guests).
type hostSample struct {
	user, sys      time.Duration
	minFlt, nivcsw int64
	stealTicks     int64 // all CPUs, in USER_HZ ticks; -1 when /proc/stat has none
}

func sampleHost() hostSample {
	var ru syscall.Rusage
	// Getrusage fails only on a bad argument.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	h := hostSample{
		user:   time.Duration(ru.Utime.Nano()),
		sys:    time.Duration(ru.Stime.Nano()),
		minFlt: int64(ru.Minflt), nivcsw: int64(ru.Nivcsw),
		stealTicks: -1,
	}
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		// cpu user nice system idle iowait irq softirq steal ...
		line, _, _ := strings.Cut(string(b), "\n")
		if f := strings.Fields(line); len(f) > 8 && f[0] == "cpu" {
			if v, err := strconv.ParseInt(f[8], 10, 64); err == nil {
				h.stealTicks = v
			}
		}
	}
	return h
}

// hostDiagnostics describes the timed window from the host's side; they
// are printed with every run and stored by -o, outside the contract.
func (m *measurement) hostDiagnostics() map[string]metric {
	a, b, wall := m.host0, m.host1, m.wall.Seconds()
	out := map[string]metric{
		"host.cpu_user_per_wall":   {Value: ratio((b.user - a.user).Seconds(), wall), Unit: "ratio", N: 1},
		"host.cpu_sys_per_wall":    {Value: ratio((b.sys - a.sys).Seconds(), wall), Unit: "ratio", N: 1},
		"host.minor_faults_per_op": {Value: ratio(float64(b.minFlt-a.minFlt), float64(m.okOps)), Unit: "count", N: m.okOps},
		"host.preemptions_per_op":  {Value: ratio(float64(b.nivcsw-a.nivcsw), float64(m.okOps)), Unit: "count", N: m.okOps},
		"host.window_wall_s":       {Value: wall, Unit: "s", N: 1},
	}
	if a.stealTicks >= 0 && b.stealTicks >= 0 {
		// USER_HZ is 100 on every Linux this runs on.
		out["host.steal_s_per_wall"] = metric{Value: ratio(float64(b.stealTicks-a.stealTicks)/100, wall), Unit: "ratio", N: 1}
	}
	return out
}
