package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hostContext describes the machine a run measured on, so a run hit by
// host drift can be told apart from one hit by the code. The tick
// fields are /proc/stat deltas across the whole run, in USER_HZ ticks.
type hostContext struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	UserTicks   int64  `json:"user_ticks"`
	SystemTicks int64  `json:"system_ticks"`
	IdleTicks   int64  `json:"idle_ticks"`
	StealTicks  int64  `json:"steal_ticks"`
}

// cpuTicks is the aggregate "cpu" line of /proc/stat.
type cpuTicks struct{ user, system, idle, steal int64 }

// readCPUTicks returns zero ticks where /proc/stat is unavailable.
func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	n := func(i int) int64 {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		return v
	}
	// Fields: user nice system idle iowait irq softirq steal.
	return cpuTicks{user: n(1) + n(2), system: n(3), idle: n(4) + n(5), steal: n(8)}
}

func newHostContext(start, end cpuTicks) hostContext {
	return hostContext{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		UserTicks:   end.user - start.user,
		SystemTicks: end.system - start.system,
		IdleTicks:   end.idle - start.idle,
		StealTicks:  end.steal - start.steal,
	}
}

// readRSSMB returns the process's resident set in MB (0 without procfs).
func readRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages*int64(os.Getpagesize())) / 1e6
}

// rssSampler reads the resident set on a fixed period until stopped.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // written by the sampling goroutine until done closes
}

func startRSS(every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			s.samples = append(s.samples, readRSSMB())
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for its goroutine and returns the
// samples in MB.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
