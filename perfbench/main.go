// Command perfbench is the repository benchmark: it runs one workload
// of the P2P-LTR stack on virtual time for a given seed, checks that the
// outputs are correct, and prints every end-to-end metric (or, with
// --trace 1, every per-layer metric) as the last line of its output.
//
//	go run . --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// BENCHMARK.json at the repository root lists the workloads, the
// metrics and the layer each per-layer metric belongs to.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"
)

// instancesPerRun is how many distinct schedules (sub-seeds of --seed)
// one run pools: the virtual-time percentiles are taken over all of
// their edits, which keeps seed-to-seed spread small. A run makes passes
// over its instances, at least one, and starts another only while it is
// expected to end within --seconds; the wall-clock metrics are medians
// over the passes, and every repeated pass must reproduce the first on
// virtual time. A traced run replays only the first tracedInstances of
// them, alternating untraced and traced passes.
const (
	instancesPerRun = 4
	tracedInstances = 2
)

func main() {
	wl := flag.String("workload", "", "workload: serve-hot, serve-spread or churn-log")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "seconds to measure")
	traced := flag.Int("trace", 0, "1: traced run, print per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	if err := run(*wl, *seed, time.Duration(*seconds)*time.Second, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// cycle is one pass over the run's instances.
type cycle struct {
	traced bool
	res    []*Result
	wall   time.Duration // Σ timed-phase wall over the instances
}

func run(wl string, seed int64, budget time.Duration, traced bool) error {
	count := instancesPerRun
	if traced {
		count = tracedInstances
	}
	scheds := make([]*Schedule, count)
	h := sha256.New()
	for i := range scheds {
		s, err := Generate(wl, seed*1000+int64(i))
		if err != nil {
			return err
		}
		scheds[i] = s
		h.Write([]byte(s.Digest()))
	}
	fmt.Printf("workload=%s seed=%d instances=%d schedule_digest=%s\n", wl, seed, count, hex.EncodeToString(h.Sum(nil))[:16])
	if traced {
		runtime.MemProfileRate = 64 << 10
	}

	var cycles []cycle
	var ref []string // vsKey of each instance's first run
	start := time.Now()
	for n := 0; ; n++ {
		tr := traced && n%2 == 1
		c := cycle{traced: tr}
		prof.on = tr
		for i, s := range scheds {
			var res *Result
			var err error
			runtime.GC() // the previous instance's garbage must not bill this set-up
			if s.Gateways > 0 {
				res, err = runServe(s, tr)
			} else {
				res, err = runChurn(s, tr)
			}
			if err != nil {
				return fmt.Errorf("%s instance %d: %w", s.Workload, i, err)
			}
			if res.GenLateMax != 0 {
				return fmt.Errorf("instance %d: generator ran %v late on virtual time", i, res.GenLateMax)
			}
			key := res.vsKey()
			if n == 0 {
				ref = append(ref, key)
			} else if key != ref[i] {
				what := "a repeated run"
				if tr {
					what = "the traced run"
				}
				return fmt.Errorf("instance %d: %s diverged from the first run on virtual time", i, what)
			}
			if tr && (n > 1 || i > 0) {
				res.rec = nil // keep one instance's spans for the write-out
			}
			c.res = append(c.res, res)
			c.wall += res.Wall
		}
		cycles = append(cycles, c)
		if traced && n%2 == 0 {
			continue // a traced run ends on a traced pass
		}
		// Stop before the next pass (a traced run: the next untraced and
		// traced pair) would overrun the budget.
		step := 1
		if traced {
			step = 2
		}
		if el := time.Since(start); el+el*time.Duration(step)/time.Duration(n+1) > budget {
			break
		}
	}
	out := map[string]metric{}
	if traced {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.tsv.gz", wl, seed))
		if err := cycles[1].res[0].rec.writeSpans(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans of instance 0 written to %s\n", path)
		layerMetrics(cycles, out)
	} else {
		endToEnd(cycles, out)
	}
	first := cycles[0].res
	attempted, failed := 0, 0
	for _, r := range first {
		attempted += r.Attempted
		failed += r.Failed
	}
	line, err := json.Marshal(map[string]any{
		"correct": true, "attempted": attempted, "failed": failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile is the nearest-rank q-quantile.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func endToEnd(cycles []cycle, out map[string]metric) {
	first := cycles[0].res
	var lat, stale []time.Duration
	var drain, stored, user float64
	acked, attempted, inSLO := 0, 0, 0
	for _, r := range first {
		for _, l := range r.EditLat {
			attempted++
			if l < 0 {
				continue
			}
			acked++
			lat = append(lat, l)
			if l <= sloBound {
				inSLO++
			}
		}
		stale = append(stale, r.Stale...)
		drain += (r.LastAck - r.FirstEdit).Seconds()
		stored += float64(r.Stored)
		user += float64(r.UserBytes)
	}
	k := float64(len(first))
	fmt.Printf("edits=%d acked=%d feed_deliveries=%d commits_per_instance=%d\n", attempted, acked, len(stale), first[0].Commits)
	out["edit_ack_p50_vs"] = metric{quantile(lat, 0.5).Seconds(), "s"}
	out["edit_ack_p99_vs"] = metric{quantile(lat, 0.99).Seconds(), "s"}
	out["edit_slo_frac"] = metric{float64(inSLO) / float64(attempted), "fraction"}
	out["feed_stale_p50_vs"] = metric{quantile(stale, 0.5).Seconds(), "s"}
	out["feed_stale_p99_vs"] = metric{quantile(stale, 0.99).Seconds(), "s"}
	out["drain_vs"] = metric{drain / k, "s"}
	out["stored_bytes_per_user_byte"] = metric{stored / user, "ratio"}

	var setup, wall, raw, cpu, alloc, heap, steal []float64
	for _, c := range cycles {
		var w, rw, cp, a, hp, st float64
		for _, r := range c.res {
			st += r.Steal.Seconds()
			setup = append(setup, r.Setup.Seconds())
			w += r.Wall.Seconds()
			rw += r.RawWall.Seconds()
			cp += r.CPU.Seconds()
			a += float64(r.Alloc) / 1e6
			hp += float64(r.HeapLive) / 1e6
		}
		n := float64(len(c.res))
		wall = append(wall, w/n)
		raw = append(raw, rw/n)
		cpu = append(cpu, cp/n)
		alloc = append(alloc, a/n)
		heap = append(heap, hp/n)
		steal = append(steal, st/n)
	}
	fmt.Printf("passes=%d wall_s=%.3f raw_wall_s=%.3f host_steal_s=%.3f (per instance, each pass; wall_s is raw wall minus the steal)\n",
		len(cycles), wall, raw, steal)
	out["setup_s"] = metric{median(setup), "s"}
	out["wall_s"] = metric{median(wall), "s"}
	out["cpu_s"] = metric{median(cpu), "s"}
	out["alloc_mb"] = metric{median(alloc), "MB"}
	out["heap_live_mb"] = metric{median(heap), "MB"}
}

// Profiling of traced timed phases: CPU nanoseconds and allocation
// bytes per layer, and the runtime's GC CPU share.
var prof = struct {
	on      bool
	buf     bytes.Buffer
	mem0    memSnapshot
	cpu     map[string]int64
	alloc   map[string]float64
	gc0, t0 float64
	gc, tot float64
}{cpu: map[string]int64{}, alloc: map[string]float64{}}

var rtSamples = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}

func readRT() (gc, total float64) {
	metrics.Read(rtSamples)
	return rtSamples[0].Value.Float64(), rtSamples[1].Value.Float64()
}

// profStart starts profiling a traced timed phase. The heap profile
// lags by up to two GC cycles, so both of its snapshots follow GCs.
func profStart() {
	if !prof.on {
		return
	}
	runtime.GC()
	runtime.GC()
	prof.mem0 = takeMem()
	prof.buf.Reset()
	if err := pprof.StartCPUProfile(&prof.buf); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
	}
	prof.gc0, prof.t0 = readRT()
}

// profStopCPU ends the CPU side of a traced timed phase.
func profStopCPU() {
	if !prof.on {
		return
	}
	pprof.StopCPUProfile()
	gc, t := readRT()
	prof.gc += gc - prof.gc0
	prof.tot += t - prof.t0
	if err := cpuProfile(prof.buf.Bytes(), prof.cpu); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

// profMem folds the phase's allocations into the per-layer totals; call
// it after the phase's closing GC.
func profMem() {
	if !prof.on {
		return
	}
	runtime.GC()
	memByLayer(prof.mem0, takeMem(), prof.alloc)
}
