package main

import (
	"fmt"
	"sync"
	"time"

	"p2pltr/internal/core"
	"p2pltr/internal/gateway"
)

const drainBudget = 900 * time.Second // virtual

// runServe runs one gateway instance (serve-hot, serve-spread): open-loop
// line edits through gateway editors, follower reads on the schedule.
func runServe(s *Schedule, traced bool) (*Result, error) {
	res := &Result{Counts: map[string]int64{}}
	t0 := time.Now()
	w := newWorld(s, core.Options{AdmissionLimit: admissionLimit}, traced)
	defer w.close()

	var mu sync.Mutex
	var acks []Ack
	feeds := &feedLog{w: w}
	gcfg := gateway.Config{
		BatchTick: batchTick,
		ProbeIdle: probeIdle,
		OnCommit: func(doc string, ts uint64, _ time.Duration) {
			at := w.now()
			mu.Lock()
			acks = append(acks, Ack{Doc: doc, TS: ts, At: at})
			mu.Unlock()
		},
	}
	gws := make([]*gateway.Gateway, s.Gateways)
	for g := range gws {
		cfg := gcfg
		cfg.OnDeliver = feeds.onDeliver(g)
		gws[g] = w.mountGateway((g*s.Peers)/s.Gateways, cfg)
		defer gws[g].Close()
	}
	editors := make([]*gateway.Editor, len(s.Editors))
	for i, e := range s.Editors {
		editors[i] = gws[e.Gateway].Session(e.Session).Editor(s.Docs[e.Doc], e.Site)
	}
	viewers := make([]*gateway.Follower, len(s.Viewers))
	for i, v := range s.Viewers {
		viewers[i] = gws[v.Gateway].Session("viewers").Follower(s.Docs[v.Doc])
	}
	if w.rec != nil {
		maxTS := uint64(len(s.Edits))
		w.rec.noteSlots(s.Docs, maxTS, w.peers[0].Log.Replicas())
	}
	res.Setup = time.Since(t0)

	ph := startPhase()
	var genDone, readsDone bool
	w.clk.Go(func() {
		for _, e := range s.Edits {
			w.sleepUntil(e.At)
			if late := w.now() - e.At; late > res.GenLateMax {
				res.GenLateMax = late
			}
			editors[e.Editor].Enqueue(e.Line)
		}
		mu.Lock()
		genDone = true
		mu.Unlock()
	})
	w.clk.Go(func() {
		for _, r := range s.Reads {
			w.sleepUntil(r.At)
			for k := 0; k < r.Count; k++ {
				v := viewers[(r.First+k)%len(viewers)]
				if traced {
					t := time.Now()
					v.Read()
					res.ReadNS = append(res.ReadNS, time.Since(t))
				} else {
					v.Read()
				}
			}
		}
		mu.Lock()
		readsDone = true
		mu.Unlock()
	})
	acked := func() int64 {
		var n int64
		for _, g := range gws {
			n += g.Counters().Counter("batched-ops").Value()
		}
		return n
	}
	for {
		w.tick(res)
		mu.Lock()
		done := genDone && readsDone
		mu.Unlock()
		if done && acked() == int64(len(s.Edits)) {
			break
		}
		if w.now() > drainBudget {
			return nil, fmt.Errorf("%s: did not drain: %d/%d lines acked", s.Workload, acked(), len(s.Edits))
		}
	}
	for _, g := range gws {
		for k, v := range g.Counters().Snapshot() {
			res.Counts["gateway_"+k] += v
		}
	}
	w.counts(res.Counts)
	for _, ed := range editors {
		b, r := ed.Replica().Stats()
		pub, boot := ed.Replica().CheckpointStats()
		res.Counts["replica_behind_rounds"] += b
		res.Counts["replica_retrieved"] += r
		res.Counts["replica_ckpt_published"] += pub
		res.Counts["replica_ckpt_bootstraps"] += boot
		res.Counts["replica_rebases"] += ed.Replica().Rebases()
	}
	ph.end(res)
	w.finishTrace(res)

	// Outcome: map every acked line to the commit that carried it.
	mu.Lock()
	res.Acks = append([]Ack(nil), acks...)
	mu.Unlock()
	ackAt := ackIndex(res.Acks)
	// The masters' timestamps, not the acks, say how far each doc got.
	// No faults are injected here, so every grant must reach its author:
	// the acked timestamps are exactly 1..final.
	final := masterFinal(w, s.Docs)
	if lost, err := checkAckedTS(res.Acks, final); err != nil || lost > 0 {
		return nil, fmt.Errorf("acked timestamps not exactly 1..final (%d granted but never acked): %v", lost, err)
	}
	res.Commits = len(res.Acks)
	logs, ckpts, stored, slots, entries := w.storeScan()
	res.Stored, res.Slots, res.Entries = stored, slots, entries
	if err := checkSlotCopies(logs, ckpts); err != nil {
		return nil, err
	}
	lineTS := map[string]uint64{}
	want := map[string]map[string]bool{}
	for doc, f := range final {
		want[doc] = map[string]bool{}
		for ts := uint64(1); ts <= f; ts++ {
			ls := logs[doc][ts]
			if ls == nil {
				return nil, fmt.Errorf("%s: acked ts %d has no stored log slot", doc, ts)
			}
			lines, err := insertedLines(ls.copies[0])
			if err != nil {
				return nil, fmt.Errorf("%s/%d: %w", doc, ts, err)
			}
			for _, l := range lines {
				if _, dup := lineTS[l]; dup {
					return nil, fmt.Errorf("%s: line %q committed twice", doc, l)
				}
				lineTS[l] = ts
				want[doc][l] = true
				res.UserBytes += int64(len(l))
			}
		}
	}
	res.Attempted = len(s.Edits)
	res.FirstEdit = s.Edits[0].At
	for _, e := range s.Edits {
		doc := s.Docs[s.Editors[e.Editor].Doc]
		ts, ok := lineTS[e.Line]
		if !ok {
			res.Failed++
			res.EditLat = append(res.EditLat, -1)
			continue
		}
		at := ackAt[doc][ts]
		res.EditLat = append(res.EditLat, at-e.At)
		if at > res.LastAck {
			res.LastAck = at
		}
	}
	if err := serveConverged(w, s, final, want, editors, viewers); err != nil {
		return nil, err
	}
	res.Stale = feeds.staleness(res.Acks)
	return res, nil
}

// serveConverged is the text gate: a cold reader on a live peer, every
// editor and every follower converge on one text holding each acked
// line exactly once.
func serveConverged(w *world, s *Schedule, final map[string]uint64, want map[string]map[string]bool,
	editors []*gateway.Editor, viewers []*gateway.Follower) error {
	start := w.now()
	for _, doc := range sortedKeys(final) {
		if err := coldRead(w, w.peers[len(w.peers)-1], doc, final[doc], want[doc], start); err != nil {
			return err
		}
	}
	for i, ed := range editors {
		doc := s.Docs[s.Editors[i].Doc]
		if err := ed.Replica().PullTo(w.ctx, final[doc]); err != nil {
			return fmt.Errorf("editor %s: %w", s.Editors[i].Site, err)
		}
		if err := checkText("editor "+s.Editors[i].Site, ed.Replica().CommittedText(), want[doc]); err != nil {
			return err
		}
	}
	for i, v := range viewers {
		doc := s.Docs[s.Viewers[i].Doc]
		if err := followerConverged(w, fmt.Sprintf("follower %d of %s", i, doc), v, final[doc], want[doc], start); err != nil {
			return err
		}
	}
	return nil
}

// followerConverged waits for a follower's feed to reach final and
// checks the text it reads.
func followerConverged(w *world, who string, v *gateway.Follower, final uint64, want map[string]bool, start time.Duration) error {
	for v.TS() < final {
		if w.now()-start > drainBudget {
			return fmt.Errorf("%s stuck at %d of %d", who, v.TS(), final)
		}
		_ = w.clk.Sleep(w.ctx, readTick)
	}
	text, ts := v.Read()
	if ts != final {
		return fmt.Errorf("%s read ts %d, final is %d", who, ts, final)
	}
	return checkText(who, text, want)
}
