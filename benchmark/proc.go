package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"syscall"
)

// procSnap is a reading of the process-wide counters the proc.* and
// allocation metrics are differences of.
type procSnap struct {
	totalAlloc uint64
	mallocs    uint64
	numGC      uint32
	pauseNs    uint64
	cpuS       float64
}

func readProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	cpu := 0.0
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		cpu = float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
	}
	return procSnap{totalAlloc: ms.TotalAlloc, mallocs: ms.Mallocs, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs, cpuS: cpu}
}

func (s procSnap) sub(start procSnap) procSnap {
	return procSnap{
		totalAlloc: s.totalAlloc - start.totalAlloc,
		mallocs:    s.mallocs - start.mallocs,
		numGC:      s.numGC - start.numGC,
		pauseNs:    s.pauseNs - start.pauseNs,
		cpuS:       s.cpuS - start.cpuS,
	}
}

func (s *procSnap) add(d procSnap) {
	s.totalAlloc += d.totalAlloc
	s.mallocs += d.mallocs
	s.numGC += d.numGC
	s.pauseNs += d.pauseNs
	s.cpuS += d.cpuS
}

// resetPeakRSS asks the kernel to restart the process's resident-set
// high-water mark, so peak_rss_mb covers the timed phase and not graph
// generation. It reports whether the reset took; without it the peak
// includes set-up and the run says so.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMiB reads VmHWM from /proc/self/status; 0 if unavailable.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		f := bytes.Fields(line)
		if len(f) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(string(f[1]), 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
