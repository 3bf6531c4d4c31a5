package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"p2pltr/internal/checkpoint"
	"p2pltr/internal/core"
	"p2pltr/internal/ids"
	"p2pltr/internal/msg"
	"p2pltr/internal/trace"
	"p2pltr/internal/transport"
	"p2pltr/internal/vclock"
)

// The traced run wraps every peer's transport.Endpoint in a
// tracedEndpoint. The wrapper only reads the virtual clock and never
// parks on it, so the traced run replays the untraced schedule exactly
// (the honesty check compares them). It records one span per client
// call and one per served request, classified by message type and, for
// DHT traffic, by the kind of slot the key names.

// span is one recorded interval on the virtual timeline.
type span struct {
	class  int16
	serve  bool  // served request (vs client call)
	failed bool  // the call returned an error
	miss   bool  // a DHT get found no value
	feed   bool  // client call made by a gateway feed
	parent int32 // index of the causing span, -1 for roots
	op     int32 // benchmark operation (commit) the span belongs to, -1 if none
	trace  uint64
	start  time.Duration
	end    time.Duration
}

type spanKey struct{}

// opKey carries the benchmark's own operation id on the ctx handed to
// core.Replica.Commit (churn-log, where the benchmark drives commits).
type opKey struct{}

// pendKey identifies an in-flight call to its served side: simnet hands
// the handler the very request value the caller sent.
type pendKey struct {
	req      msg.Message
	from, to transport.Addr
}

type connKey struct{ from, to transport.Addr }

// byteCounter counts what a gob encoder writes.
type byteCounter struct{ n int64 }

func (b *byteCounter) Write(p []byte) (int, error) { b.n += int64(len(p)); return len(p), nil }

// wireEnvelope has the shape of tcpnet's frame, so encoded sizes match
// what the TCP transport would put on the wire.
type wireEnvelope struct {
	Seq    uint64
	IsResp bool
	From   string
	ErrMsg string
	HasErr bool
	Trace  msg.TraceContext
	Body   msg.Message
}

// recorder holds the spans and counters of one traced instance.
type recorder struct {
	clk   *vclock.Virtual
	epoch time.Time

	mu       sync.Mutex
	spans    []span
	pending  map[pendKey][]int32
	classes  []string
	classIdx map[string]int16
	feedPC   map[uintptr]bool  // return address -> inside a gateway feed
	slotName map[ids.ID]string // ring position -> slot name, for DHT gets
	wire     map[connKey]*gob.Encoder
	wireN    byteCounter
	seq      uint64

	queuePeak int64
	recBytes  []int64 // p2plog record sizes put
	ckptBytes []int64 // checkpoint snapshot sizes put
}

func newRecorder(clk *vclock.Virtual) *recorder {
	msg.Register()
	return &recorder{
		clk:      clk,
		epoch:    clk.Now(),
		pending:  map[pendKey][]int32{},
		classIdx: map[string]int16{},
		feedPC:   map[uintptr]bool{},
		slotName: map[ids.ID]string{},
		wire:     map[connKey]*gob.Encoder{},
	}
}

// noteSlots registers the ring positions of every log slot, checkpoint
// slot and pointer a document can have up to maxTS, so DHT gets (which
// carry only the position) can be classified like puts.
func (r *recorder) noteSlots(docs []string, maxTS uint64, replicas int) {
	for _, d := range docs {
		for i := 0; i < replicas; i++ {
			r.slotName[ids.CheckpointPtrHash(i, d)] = fmt.Sprintf("ckptptr/%s/r%d", d, i)
			for ts := uint64(1); ts <= maxTS; ts++ {
				r.slotName[ids.ReplicaHash(i, d, ts)] = ids.LogSlotName(d, ts, i)
				if ts%ckptInterval == 0 {
					r.slotName[ids.CheckpointHash(i, d, ts)] = fmt.Sprintf("ckpt/%s/%d/r%d", d, ts, i)
				}
			}
		}
	}
}

func slotKind(name string) string {
	if _, _, ok := ids.ParseLogSlotName(name); ok {
		return "log"
	}
	if _, _, ok := checkpoint.ParseSlotName(name); ok {
		return "ckpt"
	}
	if _, ok := checkpoint.ParsePtrName(name); ok {
		return "ckptptr"
	}
	return "other"
}

// classify names a request: its message kind, plus the slot kind for
// DHT puts and gets. Caller holds r.mu.
func (r *recorder) classify(req msg.Message) int16 {
	name := req.Kind()
	switch m := req.(type) {
	case *msg.DHTPutReq:
		kind := slotKind(m.Key)
		name += "." + kind
		r.slotName[m.ID] = m.Key
		switch kind {
		case "log":
			r.recBytes = append(r.recBytes, int64(len(m.Value)))
		case "ckpt":
			r.ckptBytes = append(r.ckptBytes, int64(len(m.Value)))
		}
	case *msg.DHTGetReq:
		if n, ok := r.slotName[m.ID]; ok {
			name += "." + slotKind(n)
		} else {
			name += ".other"
		}
	}
	return r.classLocked(name)
}

func (r *recorder) classLocked(name string) int16 {
	c, ok := r.classIdx[name]
	if !ok {
		c = int16(len(r.classes))
		r.classes = append(r.classes, name)
		r.classIdx[name] = c
	}
	return c
}

func (r *recorder) now() time.Duration { return r.clk.Now().Sub(r.epoch) }

func spanFrom(ctx context.Context) int32 {
	if v, ok := ctx.Value(spanKey{}).(int32); ok {
		return v
	}
	return -1
}

func opFrom(ctx context.Context) int32 {
	if v, ok := ctx.Value(opKey{}).(int32); ok {
		return v
	}
	return -1
}

// encodeWire adds m's size, framed as tcpnet frames it, to the wire
// byte count. Each direction of a peer pair has its own encoder, as a
// tcpnet connection does. Caller holds r.mu.
func (r *recorder) encodeWire(from, to transport.Addr, m msg.Message, isResp bool, err error) {
	k := connKey{from, to}
	enc, ok := r.wire[k]
	if !ok {
		enc = gob.NewEncoder(&r.wireN)
		r.wire[k] = enc
	}
	r.seq++
	env := wireEnvelope{Seq: r.seq, IsResp: isResp, From: string(from), Body: m}
	if err != nil {
		env.HasErr, env.ErrMsg = true, err.Error()
	}
	_ = enc.Encode(&env) // sizes only; every message type is registered
}

// fromFeed reports whether the calling goroutine is running a gateway
// feed: the simulation admits one goroutine at a time, and the feed makes
// its DHT reads on its own goroutine, so its frame is on the stack of
// every call it causes. Caller holds r.mu.
func (r *recorder) fromFeed() bool {
	var pcs [64]uintptr
	n := runtime.Callers(3, pcs[:])
	for _, pc := range pcs[:n] {
		in, ok := r.feedPC[pc]
		if !ok {
			f := runtime.FuncForPC(pc - 1)
			in = f != nil && strings.HasPrefix(f.Name(), "p2pltr/internal/gateway.(*feed).")
			r.feedPC[pc] = in
		}
		if in {
			return true
		}
	}
	return false
}

type tracedEndpoint struct {
	inner    transport.Endpoint
	rec      *recorder
	peer     *core.Peer // set once the peer is built; source of KTS queue depth
	feedHost bool       // a gateway is mounted on the peer
}

func (e *tracedEndpoint) Addr() transport.Addr { return e.inner.Addr() }
func (e *tracedEndpoint) Close() error         { return e.inner.Close() }

func (e *tracedEndpoint) Call(ctx context.Context, to transport.Addr, req msg.Message) (msg.Message, error) {
	r := e.rec
	from := e.inner.Addr()
	r.mu.Lock()
	cls := r.classify(req)
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{
		class: cls, parent: spanFrom(ctx), op: opFrom(ctx),
		trace: trace.TraceIDFromContext(ctx), start: r.now(),
		feed: e.feedHost && r.fromFeed(),
	})
	pk := pendKey{req, from, to}
	r.pending[pk] = append(r.pending[pk], id)
	r.encodeWire(from, to, req, false, nil)
	r.mu.Unlock()

	resp, err := e.inner.Call(ctx, to, req)

	r.mu.Lock()
	if q := r.pending[pk]; len(q) > 0 {
		for i, v := range q {
			if v == id {
				q = append(q[:i], q[i+1:]...)
				break
			}
		}
		if len(q) == 0 {
			delete(r.pending, pk)
		} else {
			r.pending[pk] = q
		}
	}
	sp := &r.spans[id]
	sp.end = r.now()
	sp.failed = err != nil
	if g, ok := resp.(*msg.DHTGetResp); ok && !g.Found {
		sp.miss = true
	}
	if resp != nil || err != nil {
		r.encodeWire(to, from, resp, true, err)
	}
	r.mu.Unlock()
	return resp, err
}

func (e *tracedEndpoint) SetHandler(h transport.Handler) {
	self := e.inner.Addr()
	e.inner.SetHandler(func(ctx context.Context, from transport.Addr, req msg.Message) (msg.Message, error) {
		r := e.rec
		r.mu.Lock()
		cls := r.classLocked("serve:" + req.Kind())
		parent := int32(-1)
		if q := r.pending[pendKey{req, from, self}]; len(q) > 0 {
			parent = q[len(q)-1]
		}
		op := int32(-1)
		if parent >= 0 {
			op = r.spans[parent].op
		}
		id := int32(len(r.spans))
		r.spans = append(r.spans, span{
			class: cls, serve: true, parent: parent, op: op,
			trace: trace.TraceIDFromContext(ctx), start: r.now(),
		})
		r.mu.Unlock()
		if _, ok := req.(*msg.ValidateReq); ok && e.peer != nil {
			d := e.peer.KTS.AdmissionQueueDepth()
			r.mu.Lock()
			if d > r.queuePeak {
				r.queuePeak = d
			}
			r.mu.Unlock()
		}
		resp, err := h(context.WithValue(ctx, spanKey{}, id), from, req)
		r.mu.Lock()
		r.spans[id].end = r.now()
		r.spans[id].failed = err != nil
		r.mu.Unlock()
		return resp, err
	})
}

// classStats summarizes one class of spans.
type classStats struct {
	n, failed, miss int
	durs            []time.Duration
	self            time.Duration
}

// summarize folds the spans into per-class statistics. A span's self
// time is its duration minus the union of its children's intervals,
// clipped to its own (a child started by a handler may outlive it).
func (r *recorder) summarize() map[string]*classStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make([][]int32, len(r.spans))
	for i, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	out := map[string]*classStats{}
	for i, s := range r.spans {
		name := r.classes[s.class]
		cs := out[name]
		if cs == nil {
			cs = &classStats{}
			out[name] = cs
		}
		if s.end < s.start {
			continue // never returned: the instance stopped first
		}
		cs.n++
		if s.failed {
			cs.failed++
		}
		if s.miss {
			cs.miss++
		}
		d := s.end - s.start
		cs.durs = append(cs.durs, d)
		var iv [][2]time.Duration
		for _, c := range children[i] {
			a, b := max(r.spans[c].start, s.start), min(r.spans[c].end, s.end)
			if a < b {
				iv = append(iv, [2]time.Duration{a, b})
			}
		}
		cs.self += d - unionLen(iv)
	}
	return out
}

// unionLen is the total length covered by the intervals.
func unionLen(iv [][2]time.Duration) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
		} else if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// writeSpans writes every span as one tab-separated line (id, parent,
// op, trace, class, served, failed, miss, feed, start_ns, end_ns on
// virtual time), gzip-compressed.
func (r *recorder) writeSpans(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id\tparent\top\ttrace\tclass\tserved\tfailed\tmiss\tfeed\tstart_ns\tend_ns")
	r.mu.Lock()
	for i, s := range r.spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%x\t%s\t%t\t%t\t%t\t%t\t%d\t%d\n",
			i, s.parent, s.op, s.trace, r.classes[s.class], s.serve, s.failed, s.miss, s.feed, int64(s.start), int64(s.end))
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		return err
	}
	return zw.Close()
}
