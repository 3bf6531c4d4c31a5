package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"p2pltr/internal/chord"
	"p2pltr/internal/core"
	"p2pltr/internal/gateway"
	"p2pltr/internal/ids"
	"p2pltr/internal/p2plog"
	"p2pltr/internal/patch"
	"p2pltr/internal/store"
	"p2pltr/internal/trace"
	"p2pltr/internal/transport"
	"p2pltr/internal/vclock"
)

// Ack is one acknowledged commit on the virtual timeline.
type Ack struct {
	Doc string
	TS  uint64
	At  time.Duration
}

// Result is what one instance measured. Everything but the wall-clock
// fields (Setup, Wall, CPU, Alloc, HeapLive) and the profiles is a pure
// function of the schedule on virtual time.
type Result struct {
	Acks       []Ack           // in ack order
	EditLat    []time.Duration // per attempted edit; -1: never acked
	Stale      []time.Duration // per feed and acked commit: ack -> first snapshot holding it
	FirstEdit  time.Duration
	LastAck    time.Duration
	GenLateMax time.Duration
	Attempted  int
	Failed     int
	Commits    int
	LostAcks   int   // granted timestamps no author was acked for
	UserBytes  int64 // bytes of the acked lines in the final texts
	Stored     int64 // bytes in every live peer's primary and replica stores
	Slots      int   // primary store entries on live peers
	Entries    int   // primary and replica store entries on live peers
	Goroutines int   // peak, sampled at every control-loop tick

	Setup, CPU      time.Duration
	Wall            time.Duration // timed phase, net of Steal
	RawWall         time.Duration // timed phase as the wall clock read it
	Steal           time.Duration // host steal per allowed CPU during the timed phase
	Alloc, HeapLive uint64

	Counts map[string]int64 // public getters, summed over peers/gateways
	// Traced instances only.
	Spans     map[string]*classStats
	Boundary  []time.Duration // per boundary commit: ckpt puts + announce
	StageCkpt time.Duration   // in-program tracer's commit/checkpoint total
	StageRPC  time.Duration   // in-program tracer's commit/rpc total
	QueuePeak int64
	WireBytes int64
	FeedCalls int // client calls made by gateway feeds
	RecBytes  []int64
	CkptBytes []int64
	ReadNS    []time.Duration // wall time of each follower read
	RawSpans  int
	rec       *recorder
}

// vsKey is the virtual-time outcome the honesty and determinism checks
// compare: the acked (doc, ts, instant) sequence and every latency.
func (r *Result) vsKey() string {
	var b strings.Builder
	for _, a := range r.Acks {
		fmt.Fprintf(&b, "%s/%d@%d;", a.Doc, a.TS, a.At)
	}
	fmt.Fprintf(&b, "|%v|%v|%d|%d|%d|%d|%d", r.EditLat, r.Stale, r.FirstEdit, r.LastAck, r.GenLateMax, r.UserBytes, r.Stored)
	return b.String()
}

func chordConfig(clk vclock.Clock) chord.Config {
	return chord.Config{
		SuccListLen:     8,
		StabilizeEvery:  500 * time.Millisecond,
		FixFingersEvery: 500 * time.Millisecond,
		CheckPredEvery:  time.Second,
		CallTimeout:     400 * time.Millisecond,
		Clock:           clk,
	}
}

// world is the ring of one instance.
type world struct {
	clk   *vclock.Virtual
	net   *transport.Simnet
	opts  core.Options
	rec   *recorder // nil when untraced
	peers []*core.Peer
	eps   []*tracedEndpoint // per peer; nil entries when untraced
	down  []bool
	epoch time.Time
	ctx   context.Context
}

func newWorld(s *Schedule, opts core.Options, traced bool, netOpts ...transport.SimnetOption) *world {
	clk := vclock.NewVirtual()
	w := &world{clk: clk, epoch: clk.Now(), ctx: context.Background()}
	netOpts = append([]transport.SimnetOption{
		transport.WithClock(clk),
		transport.WithLatency(transport.NewLogNormalLatency(latencyMedian, latencySigma, s.Seed+1)),
	}, netOpts...)
	w.net = transport.NewSimnet(netOpts...)
	opts.Chord = chordConfig(clk)
	opts.Clock = clk
	opts.CheckpointInterval = ckptInterval
	opts.ClientBackoff = time.Second
	if traced {
		w.rec = newRecorder(clk)
		opts.Tracer = trace.New(clk, 0)
	}
	w.opts = opts
	nodes := make([]*chord.Node, 0, s.Peers)
	for i := 0; i < s.Peers; i++ {
		nodes = append(nodes, w.addPeer().Node)
	}
	clk.Register()
	chord.SeedRing(nodes)
	return w
}

func (w *world) addPeer() *core.Peer {
	var ep transport.Endpoint = w.net.NewEndpoint(fmt.Sprintf("sim-%05d", len(w.peers)))
	var te *tracedEndpoint
	if w.rec != nil {
		te = &tracedEndpoint{inner: ep, rec: w.rec}
		ep = te
	}
	p := core.NewPeer(ep, w.opts)
	if te != nil {
		te.peer = p
	}
	w.peers = append(w.peers, p)
	w.eps = append(w.eps, te)
	w.down = append(w.down, false)
	return p
}

// mountGateway mounts a gateway on peer i; a traced run attributes the
// client calls its feeds make on that peer.
func (w *world) mountGateway(i int, cfg gateway.Config) *gateway.Gateway {
	if w.eps[i] != nil {
		w.eps[i].feedHost = true
	}
	return gateway.New(w.peers[i], cfg)
}

func (w *world) now() time.Duration { return w.clk.Now().Sub(w.epoch) }

// tick parks the control loop for one tick and samples the goroutine count.
func (w *world) tick(res *Result) {
	_ = w.clk.Sleep(w.ctx, readTick)
	if g := runtime.NumGoroutine(); g > res.Goroutines {
		res.Goroutines = g
	}
}

func (w *world) sleepUntil(at time.Duration) { _ = w.clk.Sleep(w.ctx, at-w.now()) }

func (w *world) crash(i int) {
	if w.down[i] {
		return
	}
	w.net.Crash(w.peers[i].Addr())
	w.peers[i].Stop()
	w.down[i] = true
}

func (w *world) livePeer() *core.Peer {
	for i, p := range w.peers {
		if !w.down[i] && p.Node.Running() {
			return p
		}
	}
	return nil
}

// close stops every peer and releases the driving goroutine.
func (w *world) close() {
	for _, p := range w.peers {
		p.Stop()
	}
	w.clk.Unregister()
}

// counts sums every peer's public counters.
func (w *world) counts(into map[string]int64) {
	for _, p := range w.peers {
		for k, v := range p.MetricsRegistry().Snapshot() {
			if strings.HasPrefix(k, "p2pltr_trace") || k == "p2pltr_kts_admission_queue_depth" {
				continue
			}
			into[k] += v
		}
	}
	sent, dropped := w.net.Stats()
	into["net_sent"] += sent
	into["net_dropped"] += dropped
}

// logSlot is every stored copy of one committed (doc, ts).
type logSlot struct {
	copies [][]byte
}

// storeScan reads every live peer's primary and replica stores: it
// returns the copies of each log slot and checkpoint slot, the total
// stored bytes and the primary entry count.
func (w *world) storeScan() (logs map[string]map[uint64]*logSlot, ckpts map[string][][]byte, stored int64, slots, entries int) {
	logs = map[string]map[uint64]*logSlot{}
	ckpts = map[string][][]byte{}
	for i, p := range w.peers {
		if w.down[i] {
			continue
		}
		slots += p.DHT.Store().Len()
		for _, st := range [][]store.Entry{p.DHT.Store().SnapshotAll(), p.DHT.ReplicaStore().SnapshotAll()} {
			for _, e := range st {
				stored += int64(len(e.Key) + len(e.Value))
				entries++
				if doc, ts, ok := ids.ParseLogSlotName(e.Key); ok {
					m := logs[doc]
					if m == nil {
						m = map[uint64]*logSlot{}
						logs[doc] = m
					}
					ls := m[ts]
					if ls == nil {
						ls = &logSlot{}
						m[ts] = ls
					}
					ls.copies = append(ls.copies, e.Value)
				} else if strings.HasPrefix(e.Key, "ckpt/") {
					name := e.Key[:strings.LastIndexByte(e.Key, '/')]
					ckpts[name] = append(ckpts[name], e.Value)
				}
			}
		}
	}
	return logs, ckpts, stored, slots, entries
}

// checkSlotCopies fails when two stored copies of one log slot or one
// checkpoint differ: slots are write-once and n-replicated.
func checkSlotCopies(logs map[string]map[uint64]*logSlot, ckpts map[string][][]byte) error {
	for doc, m := range logs {
		for ts, ls := range m {
			for _, c := range ls.copies[1:] {
				if !bytes.Equal(c, ls.copies[0]) {
					return fmt.Errorf("log slot %s/%d: stored copies differ", doc, ts)
				}
			}
		}
	}
	for name, cs := range ckpts {
		for _, c := range cs[1:] {
			if !bytes.Equal(c, cs[0]) {
				return fmt.Errorf("checkpoint %s: stored copies differ", name)
			}
		}
	}
	return nil
}

// insertedLines decodes a stored log record and returns the lines its
// patch inserts.
func insertedLines(b []byte) ([]string, error) {
	var rec p2plog.Record
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&rec); err != nil {
		return nil, fmt.Errorf("decode log record: %w", err)
	}
	p, err := patch.Decode(rec.Patch)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, op := range p.Ops {
		if op.Kind == patch.OpInsert {
			out = append(out, op.Line)
		}
	}
	return out, nil
}

// checkAckedTS fails when a timestamp was acked twice, or acked beyond
// a doc's final timestamp. It returns how many timestamps in 1..final
// no author was acked for: a grant whose ack was lost (the author's
// Commit failed although the master committed its patch, so the author
// retried under a new patch id).
func checkAckedTS(acks []Ack, final map[string]uint64) (lost int, err error) {
	seen := map[string]map[uint64]bool{}
	for _, a := range acks {
		if seen[a.Doc] == nil {
			seen[a.Doc] = map[uint64]bool{}
		}
		if seen[a.Doc][a.TS] {
			return 0, fmt.Errorf("%s: timestamp %d acked twice", a.Doc, a.TS)
		}
		if a.TS < 1 || a.TS > final[a.Doc] {
			return 0, fmt.Errorf("%s: timestamp %d acked, final is %d", a.Doc, a.TS, final[a.Doc])
		}
		seen[a.Doc][a.TS] = true
	}
	for doc, f := range final {
		lost += int(f) - len(seen[doc])
	}
	return lost, nil
}

// masterFinal is, per doc that has a commit, the newest timestamp any
// live peer's KTS granted or holds as a replica of the master's state.
func masterFinal(w *world, docs []string) map[string]uint64 {
	final := map[string]uint64{}
	for i, p := range w.peers {
		if w.down[i] {
			continue
		}
		for _, doc := range docs {
			if ts, ok := p.KTS.LastTSLocal(doc); ok && ts > final[doc] {
				final[doc] = ts
			}
		}
	}
	return final
}

// ackIndex maps doc -> ts -> ack instant.
func ackIndex(acks []Ack) map[string]map[uint64]time.Duration {
	out := map[string]map[uint64]time.Duration{}
	for _, a := range acks {
		if out[a.Doc] == nil {
			out[a.Doc] = map[uint64]time.Duration{}
		}
		out[a.Doc][a.TS] = a.At
	}
	return out
}

// feedLog records the snapshots every gateway feed publishes. A feed is
// one (gateway, doc) pair; OnDeliver names the doc and the newest
// timestamp in the snapshot.
type feedLog struct {
	w  *world
	mu sync.Mutex
	// per feed, in publish order (timestamps ascend)
	delivered map[feedID][]Ack
}

type feedID struct {
	gateway int
	doc     string
}

// onDeliver is gateway g's OnDeliver hook.
func (l *feedLog) onDeliver(g int) func(doc string, ts uint64) {
	return func(doc string, ts uint64) {
		at := l.w.now()
		l.mu.Lock()
		if l.delivered == nil {
			l.delivered = map[feedID][]Ack{}
		}
		k := feedID{g, doc}
		l.delivered[k] = append(l.delivered[k], Ack{Doc: doc, TS: ts, At: at})
		l.mu.Unlock()
	}
}

// staleness is, per feed and per acked commit of the feed's doc, the time
// from the ack to the feed's first snapshot that holds the commit: a
// snapshot that catches up over many commits delivers each of them. A
// feed can deliver before the committing author's ack lands; that counts
// as 0. Call it once every feed has reached the final timestamps.
func (l *feedLog) staleness(acks []Ack) []time.Duration {
	byDoc := map[string][]Ack{}
	for _, a := range acks {
		byDoc[a.Doc] = append(byDoc[a.Doc], a)
	}
	for _, as := range byDoc {
		sort.Slice(as, func(i, j int) bool { return as[i].TS < as[j].TS })
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ids := make([]feedID, 0, len(l.delivered))
	for k := range l.delivered {
		ids = append(ids, k)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].gateway != ids[j].gateway {
			return ids[i].gateway < ids[j].gateway
		}
		return ids[i].doc < ids[j].doc
	})
	var out []time.Duration
	for _, k := range ids {
		ds, i := l.delivered[k], 0
		for _, a := range byDoc[k.doc] {
			for i < len(ds) && ds[i].TS < a.TS {
				i++
			}
			if i == len(ds) {
				break
			}
			out = append(out, max(ds[i].At-a.At, 0))
		}
	}
	return out
}

// coldRead opens a fresh replica of doc on peer, pulls it to final and
// checks its text.
func coldRead(w *world, peer *core.Peer, doc string, final uint64, want map[string]bool, start time.Duration) error {
	reader := core.NewReplica(peer, doc, "cold-reader")
	for reader.CommittedTS() < final {
		if err := reader.Pull(w.ctx); err != nil || reader.CommittedTS() < final {
			if w.now()-start > drainBudget {
				return fmt.Errorf("%s: cold reader stuck at %d of %d", doc, reader.CommittedTS(), final)
			}
			_ = w.clk.Sleep(w.ctx, readTick)
		}
	}
	return checkText("cold reader of "+doc, reader.CommittedText(), want)
}

// checkText fails unless text holds exactly the want lines, each once.
func checkText(who, text string, want map[string]bool) error {
	var lines []string
	if text != "" {
		lines = strings.Split(text, "\n")
	}
	got := make(map[string]bool, len(lines))
	for _, l := range lines {
		if got[l] {
			return fmt.Errorf("%s: line %q appears twice", who, l)
		}
		if !want[l] {
			return fmt.Errorf("%s: line %q was never acked or was deleted", who, l)
		}
		got[l] = true
	}
	if len(got) != len(want) {
		for l := range want {
			if !got[l] {
				return fmt.Errorf("%s: acked line %q missing (%d of %d lines)", who, l, len(got), len(want))
			}
		}
	}
	return nil
}

// phase measures the wall, CPU and allocation cost of f.
type phase struct {
	wall0  time.Time
	cpu0   time.Duration
	alloc0 uint64
	steal0 time.Duration
}

func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealCPUs names the /proc/stat lines ("cpu0", ...) of the CPUs this
// process may run on, from Cpus_allowed_list; nil where unavailable.
var stealCPUs = func() map[string]bool {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return nil
	}
	for _, line := range strings.Split(string(b), "\n") {
		list, ok := strings.CutPrefix(line, "Cpus_allowed_list:")
		if !ok {
			continue
		}
		out := map[string]bool{}
		for _, r := range strings.Split(strings.TrimSpace(list), ",") {
			lo, hi, isRange := strings.Cut(r, "-")
			a, err1 := strconv.Atoi(lo)
			z := a
			var err2 error
			if isRange {
				z, err2 = strconv.Atoi(hi)
			}
			if err1 != nil || err2 != nil {
				return nil
			}
			for c := a; c <= z; c++ {
				out[fmt.Sprintf("cpu%d", c)] = true
			}
		}
		return out
	}
	return nil
}()

// hostSteal is the CPU time the hypervisor has taken from the CPUs this
// process may run on (the steal column of their /proc/stat lines),
// averaged over those CPUs; 0 where unavailable. On a shared virtual
// machine steal comes and goes with the neighbours' load and can stretch
// a timed phase by half; wall_s is an estimate that excludes it, so that
// it prices the program rather than the host's other tenants. It still
// charges steal on an allowed CPU the benchmark was idle on.
func hostSteal() time.Duration {
	if len(stealCPUs) == 0 {
		return 0
	}
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var jiffies int64
	n := 0
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !stealCPUs[f[0]] {
			continue
		}
		j, err := strconv.ParseInt(f[8], 10, 64)
		if err != nil {
			return 0
		}
		jiffies += j
		n++
	}
	if n == 0 {
		return 0
	}
	return time.Duration(jiffies) * 10 * time.Millisecond / time.Duration(n)
}

func startPhase() phase {
	profStart()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return phase{wall0: time.Now(), cpu0: cpuNow(), alloc0: ms.TotalAlloc, steal0: hostSteal()}
}

// end records the phase into res and the live heap after a GC.
func (p phase) end(res *Result) {
	res.Steal = hostSteal() - p.steal0
	res.RawWall = time.Since(p.wall0)
	res.Wall = max(res.RawWall-res.Steal, 0)
	res.CPU = cpuNow() - p.cpu0
	profStopCPU()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.Alloc = ms.TotalAlloc - p.alloc0
	runtime.GC()
	runtime.ReadMemStats(&ms)
	res.HeapLive = ms.HeapAlloc
	profMem()
}

// finishTrace folds the recorder and the in-program tracer into res.
// Checkpoint publish spans are grouped into commits by the in-program
// trace id when one is set, else by the benchmark's own operation id.
func (w *world) finishTrace(res *Result) {
	if w.rec == nil {
		return
	}
	r := w.rec
	res.Spans = r.summarize()
	r.mu.Lock()
	res.QueuePeak = r.queuePeak
	res.WireBytes = r.wireN.n
	res.RecBytes = r.recBytes
	res.CkptBytes = r.ckptBytes
	res.RawSpans = len(r.spans)
	res.rec = r
	type group struct {
		trace uint64
		op    int32
	}
	iv := map[group][][2]time.Duration{}
	var order []group
	for _, s := range r.spans {
		if s.serve || s.end < s.start {
			continue
		}
		if s.feed {
			res.FeedCalls++
		}
		name := r.classes[s.class]
		if name != "dht.put.req.ckpt" && name != "dht.put.req.ckptptr" && name != "kts.ckpt_announce.req" {
			continue
		}
		g := group{trace: s.trace, op: s.op}
		if s.trace != 0 {
			g.op = -1
		}
		if g.trace == 0 && g.op < 0 {
			continue // maintenance-engine fallback production, not a commit
		}
		if _, ok := iv[g]; !ok {
			order = append(order, g)
		}
		iv[g] = append(iv[g], [2]time.Duration{s.start, s.end})
	}
	r.mu.Unlock()
	for _, g := range order {
		res.Boundary = append(res.Boundary, unionLen(iv[g]))
	}
	for k, h := range w.opts.Tracer.StageHistograms() {
		_, _, sum, _ := h.Buckets()
		switch k {
		case "commit/checkpoint":
			res.StageCkpt = time.Duration(sum)
		case "commit/rpc":
			res.StageRPC = time.Duration(sum)
		}
	}
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
