package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"p2pltr/internal/workload"
)

// Schedule is the explicit input of one simulation instance: everything
// a run does to the program is listed here, generated from (workload,
// seed) alone, so parent and change can be shown to receive identical
// inputs by comparing Digest.
type Schedule struct {
	Workload string
	Seed     int64
	Peers    int
	Gateways int // 0: editors are direct core.Replica sessions
	Docs     []string
	Editors  []EditorSpec
	// Edits lists every edit. Open loop (gateway workloads): At is the
	// virtual instant the line is enqueued, sorted ascending. Closed loop
	// (churn-log): At is the think gap after the editor's previous ack,
	// in per-editor order.
	Edits     []EditSpec
	Viewers   []ViewerSpec
	Reads     []ReadSpec
	Churn     []ChurnSpec
	LossAt    time.Duration // loss starts at this instant (closed loop)
	LossProb  float64
	KillLimit int // boundary commits per doomed doc whose author is killed
	// Readers hosts, per document, a gateway with no editors and one
	// follower on that document (closed loop): the workload's feed. Its
	// gateway probes the log every FeedTick (BatchTick = ProbeIdle).
	Readers  []int
	FeedTick time.Duration
}

// EditorSpec places one writing session.
type EditorSpec struct {
	Doc     int
	Gateway int    // gateway workloads
	Session string // gateway session id
	Site    string
	Host    int  // direct sessions: hosting peer index
	Doomed  bool // direct sessions: authors of boundary commits die
}

// EditSpec is one edit: a line insertion at fraction Pos of the
// document's length, or (Del >= 0) the deletion of the line the same
// editor inserted in its edit number Del.
type EditSpec struct {
	Editor int
	At     time.Duration
	Line   string
	Pos    float64
	Del    int
}

// ViewerSpec is one read-only follower.
type ViewerSpec struct{ Doc, Gateway int }

// ReadSpec reads followers [First, First+Count) (mod len(Viewers)) at At.
type ReadSpec struct {
	At           time.Duration
	First, Count int
}

// ChurnSpec crashes the listed peers and then joins Join fresh peers.
type ChurnSpec struct {
	At    time.Duration
	Crash []int
	Join  int
}

// Workload constants shared by the generator and the instance runners.
const (
	latencyMedian  = 25 * time.Millisecond
	latencySigma   = 0.5
	ckptInterval   = 8
	admissionLimit = 8
	batchTick      = 250 * time.Millisecond
	probeIdle      = 2 * time.Second
	readTick       = 500 * time.Millisecond
	sloBound       = 10 * time.Second
)

func docName(d int) string { return fmt.Sprintf("doc-%03d", d) }

// Generate builds the schedule of one instance.
func Generate(wl string, seed int64) (*Schedule, error) {
	switch wl {
	case "serve-hot":
		return genServe(wl, seed, true), nil
	case "serve-spread":
		return genServe(wl, seed, false), nil
	case "churn-log":
		return genChurn(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want serve-hot, serve-spread or churn-log)", wl)
}

// genServe: 64 peers, 4 gateways, 64 docs, 100 viewers per editor.
// serve-hot puts 32 editors on doc 0 and spreads 16 more over the other
// docs with Zipf(1.4); serve-spread gives 32 uniformly chosen docs one
// editor each and a second editor to 16 of them. Each editor enqueues
// bursts of 1-3 lines after a 200-1400 ms think gap, open loop.
func genServe(wl string, seed int64, hot bool) *Schedule {
	const (
		peers, gateways, ndocs = 64, 4, 64
		viewersPerEditor       = 100
		bursts                 = 12
	)
	s := &Schedule{Workload: wl, Seed: seed, Peers: peers, Gateways: gateways}
	for d := 0; d < ndocs; d++ {
		s.Docs = append(s.Docs, docName(d))
	}
	rng := rand.New(rand.NewSource(seed))
	var editorDoc []int
	if hot {
		for i := 0; i < 32; i++ {
			editorDoc = append(editorDoc, 0)
		}
		zipf := rand.NewZipf(rand.New(rand.NewSource(seed+7)), 1.4, 1, ndocs-2)
		for i := 0; i < 16; i++ {
			editorDoc = append(editorDoc, 1+int(zipf.Uint64()))
		}
	} else {
		// Half of the chosen docs get a second editor; fixing that share
		// keeps the contention level the same for every seed.
		for i, d := range rng.Perm(ndocs)[:32] {
			editorDoc = append(editorDoc, d)
			if i%2 == 1 {
				editorDoc = append(editorDoc, d)
			}
		}
	}
	perDoc := make([]int, ndocs)
	for i, d := range editorDoc {
		perDoc[d]++
		s.Editors = append(s.Editors, EditorSpec{
			Doc: d, Gateway: i % gateways,
			Session: fmt.Sprintf("tenant-%d", i%(2*gateways)),
			Site:    fmt.Sprintf("site-%03d", i),
		})
	}
	for i := range s.Editors {
		think := workload.NewThink(200*time.Millisecond, 1400*time.Millisecond, seed+1000*int64(i)+1)
		brng := rand.New(rand.NewSource(seed + 1000*int64(i) + 2))
		var at time.Duration
		for b := 0; b < bursts; b++ {
			at += think.Next()
			for k, n := 0, 1+brng.Intn(3); k < n; k++ {
				s.Edits = append(s.Edits, EditSpec{Editor: i, At: at, Line: fmt.Sprintf("e%03d.%d.%d", i, b, k), Del: -1})
			}
		}
	}
	sort.SliceStable(s.Edits, func(a, b int) bool { return s.Edits[a].At < s.Edits[b].At })
	g := 0
	for d := 0; d < ndocs; d++ {
		for k := 0; k < perDoc[d]*viewersPerEditor; k++ {
			s.Viewers = append(s.Viewers, ViewerSpec{Doc: d, Gateway: g % gateways})
			g++
		}
	}
	// A rotating twentieth of the viewers reads every tick, over the
	// editing span plus a fixed tail.
	last := s.Edits[len(s.Edits)-1].At
	per := len(s.Viewers)/20 + 1
	next := 0
	for at := readTick; at <= last+30*time.Second; at += readTick {
		s.Reads = append(s.Reads, ReadSpec{At: at, First: next, Count: per})
		next = (next + per) % len(s.Viewers)
	}
	return s
}

// genChurn: 128 peers, 16 docs x 4 direct editors, closed loop of 20
// edits (think 1-4000 ms, then one insert or a delete of an own line,
// then commit). 1% loss after a 3 s warm-up; every 20 s a churn batch
// crashes 2 non-host peers and joins 2 fresh ones; on 4 doomed docs the
// authors of the first two boundary commits die unpublished. Each doc is
// followed through a gateway of its own on a peer that hosts no editor.
func genChurn(seed int64) *Schedule {
	const (
		peers, ndocs, perDoc, edits = 128, 16, 4, 20
		rounds, batch               = 4, 2
	)
	s := &Schedule{
		Workload: "churn-log", Seed: seed, Peers: peers,
		LossAt: 3 * time.Second, LossProb: 0.01, KillLimit: 2,
		FeedTick: time.Second,
	}
	for d := 0; d < ndocs; d++ {
		s.Docs = append(s.Docs, docName(d))
	}
	sessions := ndocs * perDoc
	reserved := map[int]bool{}
	for i := 0; i < sessions; i++ {
		h := (i * peers) / sessions
		reserved[h] = true
		s.Editors = append(s.Editors, EditorSpec{
			Doc: i % ndocs, Site: fmt.Sprintf("site-%02d", i), Host: h,
			Doomed: i%ndocs < 4,
		})
	}
	for d := 0; d < ndocs; d++ {
		h := (d*peers)/sessions + 1
		reserved[h] = true
		s.Readers = append(s.Readers, h)
	}
	for i := range s.Editors {
		rng := rand.New(rand.NewSource(seed + 1000*int64(i)))
		var live []int // own edit numbers whose line is still present
		for e := 0; e < edits; e++ {
			sp := EditSpec{Editor: i, At: time.Duration(1+rng.Intn(4000)) * time.Millisecond, Del: -1}
			if len(live) > 0 && rng.Float64() < 0.25 {
				k := rng.Intn(len(live))
				sp.Del = live[k]
				live = append(live[:k], live[k+1:]...)
			} else {
				sp.Line = fmt.Sprintf("%s/%d", s.Editors[i].Site, e)
				sp.Pos = rng.Float64()
				live = append(live, e)
			}
			s.Edits = append(s.Edits, sp)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var victims []int
	for p := 0; p < peers; p++ {
		if !reserved[p] {
			victims = append(victims, p)
		}
	}
	rng.Shuffle(len(victims), func(a, b int) { victims[a], victims[b] = victims[b], victims[a] })
	for r := 0; r < rounds; r++ {
		s.Churn = append(s.Churn, ChurnSpec{
			At: time.Duration(r+1) * 20 * time.Second, Crash: victims[r*batch : (r+1)*batch], Join: batch,
		})
	}
	return s
}

// Digest is a SHA-256 over the schedule's canonical binary form.
func (s *Schedule) Digest() string {
	h := sha256.New()
	w := func(vs ...any) {
		for _, v := range vs {
			switch x := v.(type) {
			case string:
				_ = binary.Write(h, binary.LittleEndian, int64(len(x)))
				h.Write([]byte(x))
			case int:
				_ = binary.Write(h, binary.LittleEndian, int64(x))
			case bool:
				_ = binary.Write(h, binary.LittleEndian, x)
			default:
				_ = binary.Write(h, binary.LittleEndian, x)
			}
		}
	}
	w(s.Workload, s.Seed, s.Peers, s.Gateways, len(s.Docs))
	for _, d := range s.Docs {
		w(d)
	}
	for _, e := range s.Editors {
		w(e.Doc, e.Gateway, e.Session, e.Site, e.Host, e.Doomed)
	}
	for _, e := range s.Edits {
		w(e.Editor, int64(e.At), e.Line, e.Pos, e.Del)
	}
	for _, v := range s.Viewers {
		w(v.Doc, v.Gateway)
	}
	for _, r := range s.Reads {
		w(int64(r.At), r.First, r.Count)
	}
	for _, c := range s.Churn {
		w(int64(c.At), c.Join, len(c.Crash))
		for _, p := range c.Crash {
			w(p)
		}
	}
	w(int64(s.LossAt), s.LossProb, s.KillLimit, int64(s.FeedTick), len(s.Readers))
	for _, r := range s.Readers {
		w(r)
	}
	return hex.EncodeToString(h.Sum(nil))
}
