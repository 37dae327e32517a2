package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"

	"spq"
	"spq/internal/data"
)

// hostInfo describes the machine a result was measured on.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func host() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
	return h
}

// engineConfig describes the serving engine's configuration: the fields
// the benchmark sets, and the engine defaults the rest resolve to.
func engineConfig(cfg spq.Config) map[string]any {
	return map[string]any{
		"storage":             "dfs-binary",
		"segment":             "spq3",
		"workers":             len(cfg.Workers),
		"worker_slots":        1,
		"nodes":               16,
		"map_slots":           defaultSlots,
		"reduce_slots":        defaultSlots,
		"seal_grid_n":         spq.DefaultSealGridN,
		"query_cache_entries": spq.DefaultQueryCacheSize,
		"segment_cache_bytes": data.DefaultBlockCacheBytes,
		"compact_after":       spq.DefaultCompactAfter,
		"max_attempts":        spq.DefaultMaxAttempts,
		"request_cache":       false,
		"request_auto_plan":   true,
		"request_algorithm":   "espqsco",
	}
}

// peakRSSMB returns the process's peak resident set size in MiB, from
// /proc/self/status where available and the Go runtime's footprint
// otherwise.
func peakRSSMB() float64 {
	if v := procField("/proc/self/status", "VmHWM"); v != "" {
		if kb, err := strconv.ParseFloat(strings.Fields(v)[0], 64); err == nil {
			return kb / 1024
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// cpuTimes returns the machine's cumulative stolen and total CPU time, in
// clock ticks, from /proc/stat; zeros where it is unavailable. Time stolen
// by the hypervisor for other guests slows every layer alike.
func cpuTimes() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[min(1, len(fields)):] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			steal = v
		}
	}
	return steal, total
}

// procField returns the value of the first "name: value" line of a /proc
// file, or "".
func procField(path, name string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == name {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
