package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"p2pltr/internal/core"
	"p2pltr/internal/gateway"
	"p2pltr/internal/maintain"
	"p2pltr/internal/trace"
	"p2pltr/internal/transport"
)

// runChurn runs one churn-log instance: closed-loop direct core.Replica
// editors under loss, churn batches and boundary-author deaths, with the
// maintenance engine on.
func runChurn(s *Schedule, traced bool) (*Result, error) {
	res := &Result{Counts: map[string]int64{}}
	t0 := time.Now()
	w := newWorld(s, core.Options{Maintain: &maintain.Config{TruncateEvery: 10 * time.Second, KeepIntervals: 1}},
		traced, transport.WithDropProb(0, s.Seed+2))
	defer w.close()

	reps := make([]*core.Replica, len(s.Editors))
	for i, e := range s.Editors {
		reps[i] = core.NewReplica(w.peers[e.Host], s.Docs[e.Doc], e.Site)
		reps[i].SetRebaseOntoCheckpoint(true)
	}
	// The feed: per doc, a gateway with no editors on a peer that hosts
	// none, and one follower on the doc.
	feeds := &feedLog{w: w}
	gws := make([]*gateway.Gateway, len(s.Readers))
	followers := make([]*gateway.Follower, len(s.Readers))
	for d, h := range s.Readers {
		gws[d] = w.mountGateway(h, gateway.Config{BatchTick: s.FeedTick, ProbeIdle: s.FeedTick, OnDeliver: feeds.onDeliver(d)})
		defer gws[d].Close()
		followers[d] = gws[d].Session("readers").Follower(s.Docs[d])
	}
	edits := make([][]EditSpec, len(s.Editors))
	for _, e := range s.Edits {
		edits[e.Editor] = append(edits[e.Editor], e)
	}
	if w.rec != nil {
		w.rec.noteSlots(s.Docs, uint64(len(s.Edits)), w.peers[0].Log.Replicas())
	}
	res.Setup = time.Since(t0)

	ph := startPhase()
	var (
		mu        sync.Mutex
		acks      []Ack
		lat       = make([][]time.Duration, len(s.Editors))
		inserted  = map[string]string{} // acked inserted line -> doc
		deleted   = map[string]bool{}
		killed    = map[int]bool{} // editor index
		killReq   []int
		kills     = map[int]int{} // doc -> boundary authors killed
		running   = len(s.Editors)
		opSeq     int32
		firstEdit = time.Duration(-1)
		tr        = w.opts.Tracer
	)
	for i := range s.Editors {
		r, host := reps[i], w.peers[s.Editors[i].Host]
		spec := s.Editors[i]
		doc := s.Docs[spec.Doc]
		if spec.Doomed {
			r.SetCheckpointProduction(false)
		}
		w.clk.Go(func() {
			defer func() {
				mu.Lock()
				running--
				mu.Unlock()
			}()
			lines := map[int]string{} // own edit number -> line
			prev := w.now()
			for j, e := range edits[i] {
				due := prev + e.At
				w.sleepUntil(due)
				if late := w.now() - due; late > res.GenLateMax {
					mu.Lock()
					res.GenLateMax = late
					mu.Unlock()
				}
				if !host.Node.Running() {
					return
				}
				mu.Lock()
				if firstEdit < 0 || due < firstEdit {
					firstEdit = due
				}
				opSeq++
				ctx := context.WithValue(w.ctx, opKey{}, opSeq)
				mu.Unlock()
				var sp *trace.Span
				if tr != nil {
					sp = tr.Start("commit", doc)
					ctx = trace.NewContext(ctx, sp)
				}
				if e.Del >= 0 {
					if err := r.Pull(ctx); err != nil && !host.Node.Running() {
						return
					}
					pos := indexOf(r.CommittedLines(), lines[e.Del])
					if pos < 0 {
						sp.EndErr(fmt.Errorf("own line gone"))
						mu.Lock()
						lat[i] = append(lat[i], -1)
						mu.Unlock()
						prev = w.now()
						continue
					}
					_ = r.Delete(pos)
				} else {
					n := len(r.CommittedLines())
					_ = r.Insert(int(e.Pos*float64(n+1))%(n+1), e.Line)
					lines[j] = e.Line
				}
				// Commit until acked. A Commit that fails but leaves no
				// tentative edit behind took the edit out of the replica
				// without an ack: the master committed it under a lost
				// ack, or a checkpoint rebase dropped it. Which one shows
				// in the text once the replica is caught up.
				var ts uint64
				acked, applied := false, false
				for {
					var err error
					if ts, err = r.Commit(ctx); err == nil {
						acked, applied = true, true
						break
					}
					if !host.Node.Running() {
						sp.EndErr(err)
						return
					}
					if !r.Dirty() {
						for r.Pull(ctx) != nil && host.Node.Running() {
							_ = w.clk.Sleep(w.ctx, time.Second)
						}
						target := e.Line
						if e.Del >= 0 {
							target = lines[e.Del]
						}
						applied = (indexOf(r.CommittedLines(), target) >= 0) == (e.Del < 0)
						break
					}
					_ = w.clk.Sleep(w.ctx, time.Second)
				}
				sp.Mark("ack")
				sp.End()
				at := w.now()
				prev = at
				mu.Lock()
				if acked {
					acks = append(acks, Ack{Doc: doc, TS: ts, At: at})
				}
				if !applied {
					lat[i] = append(lat[i], -1)
				} else {
					lat[i] = append(lat[i], at-due)
					if e.Del >= 0 {
						deleted[lines[e.Del]] = true
					} else {
						inserted[e.Line] = doc
					}
				}
				die := acked && spec.Doomed && ts%ckptInterval == 0 && kills[spec.Doc] < s.KillLimit
				if die {
					// The author of this boundary commit dies before
					// publishing the checkpoint: the maintenance engine's
					// fallback producer has to cover it.
					kills[spec.Doc]++
					killed[i] = true
					killReq = append(killReq, spec.Host)
				}
				mu.Unlock()
				if die {
					return
				}
			}
		})
	}
	// The control loop: loss, churn batches, kills; then wait for the editors.
	nextChurn := 0
	lossOn := false
	for {
		w.tick(res)
		mu.Lock()
		pending := killReq
		killReq = nil
		left := running
		mu.Unlock()
		for _, h := range pending {
			w.crash(h)
		}
		if !lossOn && w.now() >= s.LossAt {
			w.net.SetDropProb(s.LossProb)
			lossOn = true
		}
		if nextChurn < len(s.Churn) && w.now() >= s.Churn[nextChurn].At {
			c := s.Churn[nextChurn]
			nextChurn++
			for _, v := range c.Crash {
				w.crash(v)
			}
			for k := 0; k < c.Join; k++ {
				if err := w.join(); err != nil {
					return nil, err
				}
			}
		}
		if left == 0 && nextChurn == len(s.Churn) {
			break
		}
		if w.now() > drainBudget {
			return nil, fmt.Errorf("churn-log: did not drain: %d editors still running", left)
		}
	}
	for _, g := range gws {
		for k, v := range g.Counters().Snapshot() {
			res.Counts["gateway_"+k] += v
		}
	}
	w.counts(res.Counts)
	for _, r := range reps {
		b, rt := r.Stats()
		pub, boot := r.CheckpointStats()
		res.Counts["replica_behind_rounds"] += b
		res.Counts["replica_retrieved"] += rt
		res.Counts["replica_ckpt_published"] += pub
		res.Counts["replica_ckpt_bootstraps"] += boot
		res.Counts["replica_rebases"] += r.Rebases()
	}
	ph.end(res)
	w.finishTrace(res)

	mu.Lock()
	res.Acks = acks
	res.Commits = len(acks)
	res.FirstEdit = firstEdit
	for _, a := range acks {
		if a.At > res.LastAck {
			res.LastAck = a.At
		}
	}
	for _, l := range lat {
		for _, x := range l {
			res.Attempted++
			if x < 0 {
				res.Failed++
			}
			res.EditLat = append(res.EditLat, x)
		}
	}
	// The masters' timestamps, not the acks, say how far each doc got:
	// a grant whose ack never reached its author shows up as a gap.
	final := masterFinal(w, s.Docs)
	lost, err := checkAckedTS(acks, final)
	if err != nil {
		mu.Unlock()
		return nil, err
	}
	res.LostAcks = lost
	logs, ckpts, stored, slots, entries := w.storeScan()
	res.Stored, res.Slots, res.Entries = stored, slots, entries
	if err := checkSlotCopies(logs, ckpts); err != nil {
		mu.Unlock()
		return nil, err
	}
	want := map[string]map[string]bool{}
	for l, doc := range inserted {
		res.UserBytes += int64(len(l))
		if deleted[l] {
			continue
		}
		if want[doc] == nil {
			want[doc] = map[string]bool{}
		}
		want[doc][l] = true
	}
	mu.Unlock()
	if err := churnConverged(w, s, final, want, reps, followers, killed); err != nil {
		return nil, err
	}
	res.Stale = feeds.staleness(acks)
	return res, nil
}

// join adds a fresh peer through a live bootstrap, retrying as loss and
// churn allow.
func (w *world) join() error {
	p := w.addPeer()
	i := len(w.peers) - 1
	var lastErr error
	for attempt := 0; attempt < 20; attempt++ {
		if attempt > 0 {
			_ = w.clk.Sleep(w.ctx, time.Second)
		}
		boot := -1
		for probe := 0; probe < len(w.peers); probe++ {
			j := (i + 1 + attempt + probe) % len(w.peers)
			if j != i && !w.down[j] && w.peers[j].Node.Running() {
				boot = j
				break
			}
		}
		if boot < 0 {
			return fmt.Errorf("churn-log: no live bootstrap peer")
		}
		if lastErr = p.Join(w.ctx, w.peers[boot].Addr()); lastErr == nil {
			return nil
		}
	}
	return fmt.Errorf("churn-log: join %s: %w", p.Addr(), lastErr)
}

// churnConverged is the text gate of churn-log: a cold reader on a live
// peer, every surviving editor and every follower converge on one text
// holding each acked, undeleted line exactly once.
func churnConverged(w *world, s *Schedule, final map[string]uint64, want map[string]map[string]bool,
	reps []*core.Replica, followers []*gateway.Follower, killed map[int]bool) error {
	start := w.now()
	for _, doc := range sortedKeys(final) {
		if err := coldRead(w, w.livePeer(), doc, final[doc], want[doc], start); err != nil {
			return err
		}
	}
	for i, r := range reps {
		if killed[i] {
			continue
		}
		doc := r.Key()
		for r.CommittedTS() < final[doc] {
			if err := r.PullTo(w.ctx, final[doc]); err != nil {
				if w.now()-start > drainBudget {
					return fmt.Errorf("%s of %s: %w", r.Site(), doc, err)
				}
				_ = w.clk.Sleep(w.ctx, readTick)
			}
		}
		if err := checkText(r.Site()+" of "+doc, r.CommittedText(), want[doc]); err != nil {
			return err
		}
	}
	for d, v := range followers {
		if err := followerConverged(w, fmt.Sprintf("follower of %s", s.Docs[d]), v, final[s.Docs[d]], want[s.Docs[d]], start); err != nil {
			return err
		}
	}
	return nil
}

func indexOf(lines []string, l string) int {
	for i, x := range lines {
		if x == l {
			return i
		}
	}
	return -1
}
