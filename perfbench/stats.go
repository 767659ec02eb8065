package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// epoch anchors the monotonic clock every timing of a run is taken from.
var epoch = time.Now()

// now returns monotonic seconds since the run started.
func now() float64 { return time.Since(epoch).Seconds() }

// since returns the seconds elapsed since t0 (a value of now).
func since(t0 float64) float64 { return now() - t0 }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs (q in (0,1]); it does not
// reorder xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// selfPeakRSSMiB is the resident high-water of this process.
func selfPeakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// goStats samples this process's Go runtime across a traced phase: GC
// cycles and pause time from MemStats, and the heap high-water by polling
// runtime/metrics (which does not stop the world) every few milliseconds.
type goStats struct {
	gc0, pause0 uint64
	stop        chan struct{}
	done        sync.WaitGroup
	peak        uint64
}

func startGoStats() *goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	g := &goStats{gc0: uint64(ms.NumGC), pause0: ms.PauseTotalNs, stop: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	g.done.Add(1)
	go func() {
		defer g.done.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > g.peak {
				g.peak = v
			}
			select {
			case <-g.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return g
}

// finish stops the sampler and stores the go.* metrics in layer.
func (g *goStats) finish(layer map[string]float64) {
	close(g.stop)
	g.done.Wait()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	layer["go.gc_cycles"] = float64(uint64(ms.NumGC) - g.gc0)
	layer["go.gc_pause_ms"] = float64(ms.PauseTotalNs-g.pause0) / 1e6
	layer["go.heap_peak_mib"] = float64(g.peak) / (1 << 20)
}

// cpuTimes is the host-wide CPU time from /proc/stat, for the share the
// hypervisor stole from this machine during a phase: a run measured while
// neighbours took the CPU is slow for reasons outside the program.
type cpuTimes struct{ steal, total float64 }

func cpuSteal() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var t cpuTimes
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return cpuTimes{}
		}
		if i == 7 {
			t.steal = v
		}
		if i < 8 { // guest time is already counted in user time
			t.total += v
		}
	}
	return t
}

// since is the stolen share of the CPU time elapsed after t0.
func (t cpuTimes) since(t0 cpuTimes) float64 {
	if t.total <= t0.total {
		return 0
	}
	return (t.steal - t0.steal) / (t.total - t0.total)
}

// runRecord describes the host and the code a result was measured on.
func runRecord(c *config) map[string]any {
	return map[string]any{
		"workload":     c.workload,
		"seed":         c.seed,
		"holdout_seed": holdoutSeed,
		"seconds":      c.seconds,
		"trace":        c.trace,
		"smoke":        c.smoke,
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"cpu_model":    cpuModel(),
		"go_version":   runtime.Version(),
		"commit":       commit(),
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

// commit names the measured code: the VCS revision when the build
// recorded one, otherwise a hash of the module sources (a benchmark
// checkout need not be a repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
