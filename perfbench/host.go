package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"tealeaf/internal/machine"
)

// host is the fingerprint every result carries, so that numbers from
// different machines are never compared by accident.
type host struct {
	cpu        string
	nproc      int
	gomaxprocs int
	goVersion  string
	llcBytes   float64
}

func fingerprint() host {
	return host{
		cpu:        cpuModel(),
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		llcBytes:   machine.HostDevice().CacheBytes,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// triadArrayBytes caps each STREAM-triad array. The arrays should be at
// least four times the LLC; on a host whose reported LLC makes that more
// memory than a benchmark may take, the shortfall is reported instead
// (host.triad_array_bytes against host.llc_bytes).
const triadArrayBytes = 128 << 20

// triad measures a[i] = b[i] + s·c[i] over GOMAXPROCS goroutines and
// returns the best of several passes in GB/s, counting 24 bytes a
// cell as STREAM does, with the size of each array in bytes.
func triad() (gbps, arrayBytes float64) {
	n := triadArrayBytes / 8
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	workers := runtime.GOMAXPROCS(0)
	pass := func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*n/workers, (w+1)*n/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					a[i] = b[i] + 3*c[i]
				}
			}()
		}
		wg.Wait()
	}
	pass() // fault the pages in
	best := time.Duration(1 << 62)
	for rep := 0; rep < 5; rep++ {
		t := time.Now()
		pass()
		best = min(best, time.Since(t))
	}
	return 24 * float64(n) / best.Seconds() / 1e9, float64(n * 8)
}

// maxRSSMB is the process's peak resident set so far, in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
