package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// layerMetric is one per-layer metric: which layer it measures, the
// end-to-end metric it should move and the workloads it moves on.
type layerMetric struct {
	name, unit, better, layer, moves, on string
}

// layerTable is the per-layer -> end-to-end/workload map; the traced run
// prints it beside the values, and BENCHMARK.json lists the same names.
var layerTable = []layerMetric{
	{"cpu.vclock_frac", "fraction", "lower", "vclock", "wall_s, cpu_s", "all"},
	{"alloc.vclock_mb", "MB", "lower", "vclock", "alloc_mb", "all"},
	{"transport.msgs_per_edit", "msgs/edit", "lower", "transport", "wall_s, cpu_s", "all"},
	{"transport.drop_frac", "fraction", "lower", "transport", "failed_frac, edit_ack_p99_vs", "churn-log"},
	{"transport.rpc_fail_frac", "fraction", "lower", "transport", "failed_frac, edit_ack_p99_vs", "churn-log"},
	{"cpu.transport_frac", "fraction", "lower", "transport", "wall_s, cpu_s", "all"},
	{"alloc.transport_mb", "MB", "lower", "transport", "alloc_mb", "all"},
	{"msg.wire_bytes_per_edit", "B/edit", "lower", "msg", "stored_bytes_per_user_byte", "all"},
	{"cpu.gob_frac", "fraction", "lower", "msg", "cpu_s", "serve-hot"},
	{"alloc.gob_mb", "MB", "lower", "msg", "alloc_mb", "serve-hot"},
	{"chord.lookups_per_edit", "lookups/edit", "lower", "chord", "edit_ack_p50_vs", "serve-spread"},
	{"chord.hops_mean", "hops", "lower", "chord", "edit_ack_p50_vs", "serve-spread"},
	{"chord.lookup_fail_frac", "fraction", "lower", "chord", "failed_frac", "churn-log"},
	{"chord.maint_msg_frac", "fraction", "lower", "chord", "wall_s", "churn-log"},
	{"chord.rpc_p99_vs", "s", "lower", "chord", "edit_ack_p50_vs", "serve-spread"},
	{"cpu.chord_frac", "fraction", "lower", "chord", "wall_s", "churn-log"},
	{"dht.puts_per_edit", "puts/edit", "lower", "dht", "cpu_s", "churn-log"},
	{"dht.gets_per_edit", "gets/edit", "lower", "dht", "cpu_s", "churn-log"},
	{"dht.get_miss_frac", "fraction", "lower", "dht", "cpu_s", "churn-log"},
	{"dht.put_p99_vs", "s", "lower", "dht", "edit_ack_p99_vs", "churn-log"},
	{"dht.get_p99_vs", "s", "lower", "dht", "edit_ack_p99_vs", "churn-log"},
	{"dht.rehomes", "count", "lower", "dht", "cpu_s", "churn-log"},
	{"dht.promotions", "count", "lower", "dht", "cpu_s", "churn-log"},
	{"store.slots_end", "count", "lower", "store", "stored_bytes_per_user_byte", "churn-log"},
	{"store.bytes_per_slot", "B", "lower", "store", "stored_bytes_per_user_byte", "churn-log"},
	{"cpu.dht_frac", "fraction", "lower", "dht", "cpu_s", "churn-log"},
	{"cpu.store_frac", "fraction", "lower", "store", "cpu_s", "churn-log"},
	{"alloc.store_mb", "MB", "lower", "store", "alloc_mb", "churn-log"},
	{"p2plog.retrieves_per_commit", "records/commit", "lower", "p2plog", "edit_ack_p99_vs, drain_vs", "serve-hot"},
	{"p2plog.fetch_p50_vs", "s", "lower", "p2plog", "edit_ack_p99_vs, drain_vs", "serve-hot"},
	{"p2plog.fetch_p99_vs", "s", "lower", "p2plog", "edit_ack_p99_vs, drain_vs", "serve-hot"},
	{"p2plog.publish_p99_vs", "s", "lower", "p2plog", "edit_ack_p99_vs, drain_vs", "serve-hot"},
	{"p2plog.record_bytes_mean", "B", "lower", "p2plog", "stored_bytes_per_user_byte", "all"},
	{"kts.validates_per_commit", "calls/commit", "lower", "kts", "edit_ack_p99_vs, drain_vs", "serve-hot"},
	{"kts.grant_frac", "fraction", "higher", "kts", "edit_ack_p99_vs, edit_slo_frac", "serve-hot"},
	{"kts.fast_rejects_per_commit", "rejects/commit", "lower", "kts", "edit_ack_p99_vs", "serve-hot"},
	{"kts.busy_rejects_per_commit", "rejects/commit", "lower", "kts", "edit_ack_p99_vs", "serve-hot"},
	{"kts.validate_p50_vs", "s", "lower", "kts", "edit_ack_p99_vs, edit_slo_frac", "serve-hot"},
	{"kts.validate_p99_vs", "s", "lower", "kts", "edit_ack_p99_vs, edit_slo_frac", "serve-hot"},
	{"kts.validate_self_vs_mean", "s", "lower", "kts", "edit_ack_p99_vs, drain_vs", "serve-hot"},
	{"kts.queue_depth_peak", "count", "lower", "kts", "edit_ack_p99_vs", "serve-hot"},
	{"kts.takeovers", "count", "lower", "kts", "edit_ack_p99_vs", "churn-log"},
	{"cpu.kts_frac", "fraction", "lower", "kts", "cpu_s", "serve-hot"},
	{"core.behind_rounds_per_commit", "rounds/commit", "lower", "core", "edit_ack_p99_vs", "serve-hot"},
	{"core.rebases", "count", "lower", "core", "edit_ack_p99_vs", "churn-log"},
	{"core.lost_acks", "count", "lower", "core", "failed_frac", "churn-log"},
	{"cpu.core_frac", "fraction", "lower", "core", "cpu_s", "serve-hot"},
	{"cpu.ot_frac", "fraction", "lower", "ot", "cpu_s", "serve-hot"},
	{"cpu.patch_frac", "fraction", "lower", "patch", "cpu_s", "serve-hot"},
	{"cpu.p2plog_frac", "fraction", "lower", "p2plog", "cpu_s", "serve-hot"},
	{"checkpoint.publishes", "count", "lower", "checkpoint", "stored_bytes_per_user_byte", "churn-log"},
	{"checkpoint.bootstraps", "count", "higher", "checkpoint", "edit_ack_p99_vs", "serve-hot"},
	{"checkpoint.bytes_mean", "B", "lower", "checkpoint", "stored_bytes_per_user_byte", "churn-log"},
	{"checkpoint.boundary_vs_sum", "s", "lower", "checkpoint", "edit_ack_p99_vs", "serve-hot"},
	{"checkpoint.boundary_vs_p50", "s", "lower", "checkpoint", "edit_ack_p99_vs", "serve-hot"},
	{"checkpoint.tracer_stage_vs_sum", "s", "higher", "checkpoint", "none: in-program attribution cross-check", "serve-hot"},
	{"checkpoint.tracer_rpc_vs_sum", "s", "lower", "checkpoint", "none: in-program attribution cross-check", "serve-hot"},
	{"maintain.passes", "count", "lower", "maintain", "cpu_s", "churn-log"},
	{"maintain.fallback_checkpoints", "count", "lower", "maintain", "stored_bytes_per_user_byte", "churn-log"},
	{"maintain.slots_truncated", "count", "higher", "maintain", "stored_bytes_per_user_byte", "churn-log"},
	{"maintain.truncations_ratelimited", "count", "lower", "maintain", "stored_bytes_per_user_byte", "churn-log"},
	{"cpu.maintain_frac", "fraction", "lower", "maintain", "cpu_s", "churn-log"},
	{"alloc.maintain_mb", "MB", "lower", "maintain", "alloc_mb", "churn-log"},
	{"gateway.batch_lines_mean", "lines/commit", "higher", "gateway", "edit_ack_p50_vs", "serve-spread"},
	{"gateway.busy_deferrals", "count", "lower", "gateway", "edit_ack_p50_vs", "serve-hot"},
	{"gateway.route_hit_frac", "fraction", "higher", "gateway", "edit_ack_p50_vs", "serve-spread"},
	{"gateway.ptr_cache_hit_frac", "fraction", "higher", "gateway", "feed_stale_p99_vs", "serve-spread"},
	{"gateway.feed_errors", "count", "lower", "gateway", "feed_stale_p99_vs", "serve-spread"},
	{"gateway.read_ns_mean", "ns", "lower", "gateway", "cpu_s, alloc_mb", "serve-hot"},
	{"gateway.feed_rpc_frac", "fraction", "lower", "gateway", "cpu_s, feed_stale_p99_vs", "all"},
	{"cpu.gateway_frac", "fraction", "lower", "gateway", "cpu_s", "serve-hot"},
	{"alloc.gateway_mb", "MB", "lower", "gateway", "alloc_mb", "serve-hot"},
	{"cpu.bench_frac", "fraction", "lower", "benchmark", "none: load generation and tracing", "all"},
	{"cpu.runtime_frac", "fraction", "lower", "runtime", "cpu_s", "all"},
	{"runtime.gc_cpu_frac", "fraction", "lower", "runtime", "cpu_s, heap_live_mb", "all"},
	{"runtime.goroutines_peak", "count", "lower", "runtime", "heap_live_mb", "all"},
	{"trace.wall_overhead_frac", "fraction", "lower", "benchmark", "none: cost of the traced run", "all"},
	{"failed_frac", "fraction", "lower", "end-to-end", "failed edits over attempted", "all"},
	{"gen.late_max_vs", "s", "lower", "benchmark", "must be 0 on virtual time", "all"},
}

func layerMetrics(cycles []cycle, out map[string]metric) {
	var traced, plain []cycle
	for _, c := range cycles {
		if c.traced {
			traced = append(traced, c)
		} else {
			plain = append(plain, c)
		}
	}
	res := traced[0].res
	k := float64(len(res))
	cnt := map[string]float64{}
	spans := map[string]*classStats{}
	var edits, commits, failed, lost, slots, entries, stored float64
	var boundary, readNS []time.Duration
	var recBytes, ckptBytes []int64
	var wire, feedCalls, goroutines, queuePeak float64
	var stageCkpt, stageRPC time.Duration
	var lateMax time.Duration
	for _, r := range res {
		for name, v := range r.Counts {
			cnt[name] += float64(v)
		}
		for name, cs := range r.Spans {
			t := spans[name]
			if t == nil {
				t = &classStats{}
				spans[name] = t
			}
			t.n += cs.n
			t.failed += cs.failed
			t.miss += cs.miss
			t.self += cs.self
			t.durs = append(t.durs, cs.durs...)
		}
		edits += float64(r.Attempted)
		commits += float64(r.Commits)
		failed += float64(r.Failed)
		lost += float64(r.LostAcks)
		slots += float64(r.Slots)
		entries += float64(r.Entries)
		stored += float64(r.Stored)
		boundary = append(boundary, r.Boundary...)
		readNS = append(readNS, r.ReadNS...)
		recBytes = append(recBytes, r.RecBytes...)
		ckptBytes = append(ckptBytes, r.CkptBytes...)
		wire += float64(r.WireBytes)
		feedCalls += float64(r.FeedCalls)
		if g := float64(r.Goroutines); g > goroutines {
			goroutines = g
		}
		if q := float64(r.QueuePeak); q > queuePeak {
			queuePeak = q
		}
		stageCkpt += r.StageCkpt
		stageRPC += r.StageRPC
		if r.GenLateMax > lateMax {
			lateMax = r.GenLateMax
		}
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	// pick pools the spans of every class the filter accepts.
	pick := func(keep func(string) bool) (n, fail, miss int, durs []time.Duration, self time.Duration) {
		for name, cs := range spans {
			if keep(name) {
				n += cs.n
				fail += cs.failed
				miss += cs.miss
				durs = append(durs, cs.durs...)
				self += cs.self
			}
		}
		return
	}
	prefix := func(p string) func(string) bool { return func(n string) bool { return strings.HasPrefix(n, p) } }
	is := func(names ...string) func(string) bool {
		return func(n string) bool {
			for _, x := range names {
				if n == x {
					return true
				}
			}
			return false
		}
	}
	client := func(n string) bool { return !strings.HasPrefix(n, "serve:") }
	vs := func(d time.Duration) float64 { return d.Seconds() }

	allN, allFail, _, _, _ := pick(client)
	_, _, _, chordD, _ := pick(prefix("chord."))
	maintN, _, _, _, _ := pick(is("chord.neighbors.req", "chord.notify.req", "chord.ping.req"))
	putN, _, _, putD, _ := pick(prefix("dht.put.req"))
	getN, _, getMiss, getD, _ := pick(prefix("dht.get.req"))
	_, _, _, fetchD, _ := pick(is("dht.get.req.log"))
	_, _, _, pubD, _ := pick(is("dht.put.req.log"))
	valN, _, _, valD, _ := pick(is("kts.validate.req"))
	servedN, _, _, _, servedSelf := pick(is("serve:kts.validate.req"))

	var cpuTotal int64
	for _, v := range prof.cpu {
		cpuTotal += v
	}
	var allocTotal float64
	for _, v := range prof.alloc {
		allocTotal += v
	}
	var allocMB float64
	for _, c := range traced {
		for _, r := range c.res {
			allocMB += float64(r.Alloc) / 1e6
		}
	}
	allocMB /= float64(len(traced)) * k
	cpuFrac := func(layer string) float64 { return div(float64(prof.cpu[layer]), float64(cpuTotal)) }
	allocOf := func(layer string) float64 { return div(prof.alloc[layer], allocTotal) * allocMB }
	wallOf := func(cs []cycle) float64 {
		var xs []float64
		for _, c := range cs {
			xs = append(xs, c.wall.Seconds())
		}
		return median(xs)
	}
	lookups := cnt["p2pltr_chord_lookups"]
	set := func(name string, v float64) { out[name] = metric{Value: v} }

	set("cpu.vclock_frac", cpuFrac("vclock"))
	set("alloc.vclock_mb", allocOf("vclock"))
	set("transport.msgs_per_edit", div(cnt["net_sent"], edits))
	set("transport.drop_frac", div(cnt["net_dropped"], cnt["net_sent"]))
	set("transport.rpc_fail_frac", div(float64(allFail), float64(allN)))
	set("cpu.transport_frac", cpuFrac("transport"))
	set("alloc.transport_mb", allocOf("transport"))
	set("msg.wire_bytes_per_edit", div(wire, edits))
	set("cpu.gob_frac", cpuFrac("gob"))
	set("alloc.gob_mb", allocOf("gob"))
	set("chord.lookups_per_edit", div(lookups, edits))
	set("chord.hops_mean", div(cnt["p2pltr_chord_lookup_hops"], lookups))
	set("chord.lookup_fail_frac", div(cnt["p2pltr_chord_lookup_failures"], lookups+cnt["p2pltr_chord_lookup_failures"]))
	set("chord.maint_msg_frac", div(float64(maintN), float64(allN)))
	set("chord.rpc_p99_vs", vs(quantile(chordD, 0.99)))
	set("cpu.chord_frac", cpuFrac("chord"))
	set("dht.puts_per_edit", div(float64(putN), edits))
	set("dht.gets_per_edit", div(float64(getN), edits))
	set("dht.get_miss_frac", div(float64(getMiss), float64(getN)))
	set("dht.put_p99_vs", vs(quantile(putD, 0.99)))
	set("dht.get_p99_vs", vs(quantile(getD, 0.99)))
	set("dht.rehomes", cnt["p2pltr_dht_rehomes"]/k)
	set("dht.promotions", cnt["p2pltr_dht_promotions"]/k)
	set("store.slots_end", slots/k)
	set("store.bytes_per_slot", div(stored, entries))
	set("cpu.dht_frac", cpuFrac("dht"))
	set("cpu.store_frac", cpuFrac("store"))
	set("alloc.store_mb", allocOf("store"))
	set("p2plog.retrieves_per_commit", div(cnt["replica_retrieved"], commits))
	set("p2plog.fetch_p50_vs", vs(quantile(fetchD, 0.5)))
	set("p2plog.fetch_p99_vs", vs(quantile(fetchD, 0.99)))
	set("p2plog.publish_p99_vs", vs(quantile(pubD, 0.99)))
	set("p2plog.record_bytes_mean", meanInt(recBytes))
	set("kts.validates_per_commit", div(float64(valN), commits))
	set("kts.grant_frac", div(cnt["p2pltr_kts_grants"], float64(servedN)))
	set("kts.fast_rejects_per_commit", div(cnt["p2pltr_kts_fast_rejects"], commits))
	set("kts.busy_rejects_per_commit", div(cnt["p2pltr_kts_busy_rejects"], commits))
	set("kts.validate_p50_vs", vs(quantile(valD, 0.5)))
	set("kts.validate_p99_vs", vs(quantile(valD, 0.99)))
	set("kts.validate_self_vs_mean", div(servedSelf.Seconds(), float64(servedN)))
	set("kts.queue_depth_peak", queuePeak)
	set("kts.takeovers", cnt["p2pltr_kts_takeovers"]/k)
	set("cpu.kts_frac", cpuFrac("kts"))
	set("core.behind_rounds_per_commit", div(cnt["replica_behind_rounds"], commits))
	set("core.rebases", cnt["replica_rebases"]/k)
	set("core.lost_acks", lost/k)
	set("cpu.core_frac", cpuFrac("core"))
	set("cpu.ot_frac", cpuFrac("ot"))
	set("cpu.patch_frac", cpuFrac("patch"))
	set("cpu.p2plog_frac", cpuFrac("p2plog"))
	set("checkpoint.publishes", cnt["replica_ckpt_published"]/k)
	set("checkpoint.bootstraps", (cnt["replica_ckpt_bootstraps"]+cnt["gateway_follower-bootstraps"])/k)
	set("checkpoint.bytes_mean", meanInt(ckptBytes))
	var bsum time.Duration
	for _, b := range boundary {
		bsum += b
	}
	set("checkpoint.boundary_vs_sum", bsum.Seconds()/k)
	set("checkpoint.boundary_vs_p50", vs(quantile(boundary, 0.5)))
	set("checkpoint.tracer_stage_vs_sum", stageCkpt.Seconds()/k)
	set("checkpoint.tracer_rpc_vs_sum", stageRPC.Seconds()/k)
	set("maintain.passes", cnt["p2pltr_maintain_passes"]/k)
	set("maintain.fallback_checkpoints", cnt["p2pltr_maintain_fallback_checkpoints"]/k)
	set("maintain.slots_truncated", cnt["p2pltr_maintain_slots_truncated"]/k)
	set("maintain.truncations_ratelimited", cnt["p2pltr_maintain_truncations_ratelimited"]/k)
	set("cpu.maintain_frac", cpuFrac("maintain"))
	set("alloc.maintain_mb", allocOf("maintain"))
	set("gateway.batch_lines_mean", div(cnt["gateway_batched-ops"], cnt["gateway_commits"]))
	set("gateway.busy_deferrals", cnt["gateway_busy-deferrals"]/k)
	set("gateway.route_hit_frac", div(cnt["gateway_route-hits"], cnt["gateway_route-hits"]+cnt["gateway_route-misses"]))
	set("gateway.ptr_cache_hit_frac", div(cnt["gateway_ptr-cache-hits"], cnt["gateway_ptr-cache-hits"]+cnt["gateway_ptr-cache-misses"]))
	set("gateway.feed_errors", cnt["gateway_feed-errors"]/k)
	var rsum time.Duration
	for _, d := range readNS {
		rsum += d
	}
	set("gateway.read_ns_mean", div(float64(rsum), float64(len(readNS))))
	set("gateway.feed_rpc_frac", div(feedCalls, float64(allN)))
	set("cpu.gateway_frac", cpuFrac("gateway"))
	set("alloc.gateway_mb", allocOf("gateway"))
	set("cpu.bench_frac", cpuFrac("bench"))
	set("cpu.runtime_frac", cpuFrac("runtime"))
	set("runtime.gc_cpu_frac", div(prof.gc, prof.tot))
	set("runtime.goroutines_peak", goroutines)
	set("trace.wall_overhead_frac", div(wallOf(traced), wallOf(plain))-1)
	set("failed_frac", div(failed, edits))
	set("gen.late_max_vs", lateMax.Seconds())

	fmt.Printf("traced: cycles=%d spans=%d edits=%.0f commits=%.0f boundary_commits=%d\n", len(traced), res[0].RawSpans, edits, commits, len(boundary))
	fmt.Printf("%-34s %14s %-14s %-10s %s\n", "per-layer metric", "value", "unit", "layer", "should move (on)")
	for _, m := range layerTable {
		v := out[m.name]
		v.Unit = m.unit
		out[m.name] = v
		fmt.Printf("%-34s %14.6g %-14s %-10s %s (%s)\n", m.name, v.Value, m.unit, m.layer, m.moves, m.on)
	}
	if len(out) != len(layerTable) {
		panic(fmt.Sprintf("per-layer metrics and table disagree: %d vs %d", len(out), len(layerTable)))
	}
	var names []string
	for name := range spans {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("spans by class: name n failed miss p50_vs p99_vs self_vs_sum")
	for _, name := range names {
		cs := spans[name]
		fmt.Printf("  %-32s %8d %6d %6d %10.4f %10.4f %12.3f\n", name, cs.n, cs.failed, cs.miss,
			quantile(cs.durs, 0.5).Seconds(), quantile(cs.durs, 0.99).Seconds(), cs.self.Seconds())
	}
}

func meanInt(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s int64
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}
