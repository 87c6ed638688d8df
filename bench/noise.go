package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
)

// noiseReport says how quiet the box was while a child measured. It is a
// diagnostic printed next to the result and never used to filter: a noisy
// run is reported as noisy, not dropped.
type noiseReport struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	LoadAvg1   float64 `json:"loadavg_1m_at_start"`
	StealPct   float64 `json:"steal_pct"`
	// RepSpread is the reps' rate IQR / median.
	RepSpread float64 `json:"rep_iqr_over_median"`
	// TimeWait is the TIME_WAIT socket count when the child started: it
	// matters before fleet_chaos, which opens a connection per request.
	TimeWait int  `json:"time_wait_at_start"`
	Noisy    bool `json:"noisy"`
}

// noisyRepSpread is the rep IQR/median above which a run calls itself noisy.
const noisyRepSpread = 0.25

func newNoiseReport() noiseReport {
	return noiseReport{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		LoadAvg1:   loadAvg1(),
		TimeWait:   timeWaitSockets(),
	}
}

func (n *noiseReport) finish(w *window) {
	n.StealPct = w.StealShare * 100
	n.RepSpread = spread(w.Rates)
	n.Noisy = n.RepSpread > noisyRepSpread
}

func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// timeWaitSockets reads the "tw" count from /proc/net/sockstat (0 if absent).
func timeWaitSockets() int {
	b, err := os.ReadFile("/proc/net/sockstat")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	for i := 0; i+1 < len(f); i++ {
		if f[i] == "tw" {
			n, _ := strconv.Atoi(f[i+1])
			return n
		}
	}
	return 0
}

// cpuJiffies is the first line of /proc/stat: steal and the total.
type cpuJiffies struct{ steal, total uint64 }

func readSteal() cpuJiffies {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuJiffies{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	var j cpuJiffies
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		if i <= 8 { // guest time is already inside user
			j.total += v
		}
		if i == 8 {
			j.steal = v
		}
	}
	return j
}

// share is the fraction of CPU time stolen since the earlier reading.
func (j cpuJiffies) share(since cpuJiffies) float64 {
	if j.total <= since.total {
		return 0
	}
	return float64(j.steal-since.steal) / float64(j.total-since.total)
}
