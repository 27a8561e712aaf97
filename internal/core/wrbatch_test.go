package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/datatype"
	"repro/internal/mem"
	"repro/internal/qos"
)

// Doorbell batches resolve through one completion record signaled at the
// batch's tail (wr.go). These tests take a Multi-W transfer apart between
// engine events: 72 runs of 512 B, half a megabyte apart — past what group
// registration bridges — so each run has a region of its own on either side
// and one run's registration can be pulled out from under the transfer
// without touching its neighbours'.

const batchRuns, batchStride = 72, 512 << 10

var batchVec = datatype.Must(datatype.TypeVector(batchRuns, 128, batchStride/4, datatype.Int32))

// batchWorld starts one Multi-W message 0 → 1 and steps the engine until the
// sender has rung its first doorbell (and ready, when given, holds).
func batchWorld(t *testing.T, pol *qos.Policy, ready func(w *testWorld) bool) (w *testWorld, s, r *Request, rbuf mem.Addr) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Scheme = SchemeMultiW
	cfg.QoS = pol
	w = newTestWorld(t, 2, cfg, 96<<20)
	sbuf := allocFor(w.eps[0], batchVec, 1)
	rbuf = allocFor(w.eps[1], batchVec, 1)
	fillMsg(w.eps[0], sbuf, batchVec, 1, 0x3C)
	r = w.eps[1].Irecv(rbuf, 1, batchVec, 0, 9)
	s = w.eps[0].Isend(sbuf, 1, batchVec, 1, 9)
	for w.eps[0].wrLive() == 0 || ready != nil && !ready(w) {
		if !w.eng.Step() {
			t.Fatal("the engine ran dry before the sender posted")
		}
	}
	return w, s, r, rbuf
}

// regionAt returns the registered region of ep's memory that covers
// [a, a+n).
func regionAt(t *testing.T, ep *Endpoint, a mem.Addr, n int64) *mem.Region {
	t.Helper()
	for key := uint32(1); key < 4096; key++ {
		if reg := ep.Mem().Reg().Lookup(key); reg != nil && reg.Covers(a, n) {
			return reg
		}
	}
	t.Fatalf("no region of rank %d covers [%#x,+%d)", ep.Rank(), a, n)
	return nil
}

// quiesced fails the test unless every rank's records are home and rank i
// failed exactly failed[i] requests.
func quiesced(t *testing.T, w *testWorld, failed ...int64) {
	t.Helper()
	for i, ep := range w.eps {
		ps := ep.PoolStats()
		if ps.LiveWRs != 0 || ps.LiveSendOps != 0 || ps.LiveRecvOps != 0 || ps.ActiveSends != 0 || ps.ActiveRecvs != 0 {
			t.Errorf("rank %d not quiescent: %+v", ep.Rank(), ps)
		}
		if got := ep.Counters().RequestsFailed; got != failed[i] {
			t.Errorf("rank %d failed %d requests, want %d", ep.Rank(), got, failed[i])
		}
		if ep.lanes != nil {
			if d, b := ep.lanes.Outstanding(1 - ep.Rank()); d != 0 || b != 0 || ep.lanes.QueuedTotal() != 0 {
				t.Errorf("rank %d lane window: %d descriptors, %d bytes charged, %d units queued after the drain",
					ep.Rank(), d, b, ep.lanes.QueuedTotal())
			}
		}
	}
}

// An unsignaled member of a batch that the responder refuses — no injector:
// its target region went away — completes with its error ahead of the
// batch's tail. The record keeps the error and stays out until the tail's
// completion resolves it, and the send aborts then, once.
func TestBatchMemberFailureAbortsOnce(t *testing.T) {
	w, s, r, rbuf := batchWorld(t, nil, nil)
	const run, tail = 5, 63 // a member of the first doorbell's 64, and its tail
	gone := regionAt(t, w.eps[1], rbuf+run*batchStride, 512)
	if gone.Covers(rbuf+tail*batchStride, 512) {
		t.Fatal("the receiver registered the member's and the tail's runs as one region")
	}
	if err := w.eps[1].Mem().Reg().Deregister(gone); err != nil {
		t.Fatal(err)
	}
	held := func() *wrRec {
		for _, rec := range w.eps[0].wrTab[1:] {
			if rec.kind != wrFree && rec.err != nil {
				return rec
			}
		}
		return nil
	}
	for held() == nil {
		if !w.eng.Step() {
			t.Fatal("the refused member never completed")
		}
	}
	rec := held()
	if s.Done() || rec.n != 64 || !strings.Contains(rec.err.Error(), "remote access error") {
		t.Fatalf("after the member's completion: send done %v, record settles %d descriptors, holds %v", s.Done(), rec.n, rec.err)
	}
	if err := w.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if rec.kind != wrFree {
		t.Error("the tail's completion did not recycle the batch record")
	}
	if s.Err == nil || !strings.Contains(s.Err.Error(), "remote access error") {
		t.Errorf("send completed with %v, want the member's remote access error", s.Err)
	}
	// Every doorbell was rung before the member was refused, the members
	// behind it are unaffected, and so the last one's immediate still
	// completes the receive: only the sender can tell (as before selective
	// signalling, when the refused write had a completion of its own).
	if !r.Done() || r.Err != nil {
		t.Errorf("receive: done %v, err %v", r.Done(), r.Err)
	}
	quiesced(t, w, 1, 0)
}

// With the lane arbiter on, a bulk transfer's doorbells are window-sized
// batches that wait their turn. The window charge is taken per batch and
// returned per batch, by the record that settles it, whether the batch
// completed, was rejected at the doorbell, or was abandoned in the queue.
func TestBatchLaneAccounting(t *testing.T) {
	pol := qos.DefaultPolicy()
	pol.BulkThreshold, pol.DescWindow, pol.ByteWindow = 1, 4, 0
	queued := func(w *testWorld) bool { return w.eps[0].lanes.Queued(1) > 0 }
	// stepAll runs the world dry, checking the window at every event.
	stepAll := func(t *testing.T, w *testWorld) {
		t.Helper()
		for w.eng.Step() {
			if d, _ := w.eps[0].lanes.Outstanding(1); d < 0 || d > pol.DescWindow {
				t.Fatalf("%d bulk descriptors charged against a window of %d", d, pol.DescWindow)
			}
		}
	}

	t.Run("completed", func(t *testing.T) {
		w, s, r, _ := batchWorld(t, &pol, queued)
		stepAll(t, w)
		if !s.Done() || !r.Done() || s.Err != nil || r.Err != nil {
			t.Fatalf("send %v/%v recv %v/%v", s.Done(), s.Err, r.Done(), r.Err)
		}
		if d, b := w.eps[0].lanes.Outstanding(1); d != 0 || b != 0 || w.eps[0].wrLive() != 0 {
			t.Fatalf("after a clean transfer: %d descriptors, %d bytes still charged, %d records out", d, b, w.eps[0].wrLive())
		}
		if c := w.eps[0].Counters(); c.QoSLaneDeferrals != batchRuns/4-1 {
			t.Errorf("%d doorbells deferred, want all but the first of %d", c.QoSLaneDeferrals, batchRuns/4)
		}
	})

	t.Run("aborted in the queue", func(t *testing.T) {
		w, s, _, _ := batchWorld(t, &pol, queued)
		op := w.eps[0].peers[1].sends[0]
		if op.wrsLeft != batchRuns || w.eps[0].wrLive() != batchRuns/4 {
			t.Fatalf("before the abort: wrsLeft %d, %d records out", op.wrsLeft, w.eps[0].wrLive())
		}
		cause := errors.New("pulled by the test")
		w.eps[0].abortSend(op, cause)
		stepAll(t, w)
		if !errors.Is(s.Err, cause) {
			t.Errorf("send completed with %v", s.Err)
		}
		if posted := w.eps[0].Counters().RDMAWritesPosted; posted != 4 {
			t.Errorf("%d writes reached the NIC, want the first doorbell's 4", posted)
		}
		quiesced(t, w, 1, 1)
	})

	t.Run("doorbell rejected", func(t *testing.T) {
		w, s, _, _ := batchWorld(t, &pol, queued)
		// The second doorbell's gather list loses its registration while it
		// waits for window room: the post is refused, nothing of it reaches
		// the NIC, and the op aborts with the post error.
		op := w.eps[0].peers[1].sends[0]
		if err := w.eps[0].Mem().Reg().Deregister(regionAt(t, w.eps[0], op.wrs.wrs[4].SGL[0].Addr, 512)); err != nil {
			t.Fatal(err)
		}
		stepAll(t, w)
		if s.Err == nil || !strings.Contains(s.Err.Error(), "invalid key") {
			t.Errorf("send completed with %v, want the refused post's error", s.Err)
		}
		if posted := w.eps[0].Counters().RDMAWritesPosted; posted != 4 {
			t.Errorf("%d writes reached the NIC, want the first doorbell's 4", posted)
		}
		quiesced(t, w, 1, 1)
	})
}

// A Put's list posts resolve through the same batch records. The target
// layout's middle run lies outside the window's registration, so the middle
// write of three — an unsignaled member — is refused: the Put reports that
// error, once, after the tail has completed, and its neighbours have landed.
func TestRMAListMemberFailure(t *testing.T) {
	w := newTestWorld(t, 2, DefaultConfig(), 48<<20)
	const registered, claimed = 4096, 32 << 10
	origin := datatype.Must(datatype.TypeContiguous(48, datatype.Int32))
	target := datatype.Must(datatype.TypeIndexed([]int{16, 16, 16}, []int{0, 4096, 32}, datatype.Int32))
	win := w.eps[1].Mem().MustAlloc(claimed)
	key, _, err := w.eps[1].ExposeWindow(win, registered)
	if err != nil {
		t.Fatal(err)
	}
	obuf := allocFor(w.eps[0], origin, 1)
	sent := fillMsg(w.eps[0], obuf, origin, 1, 0x5E)
	var results []error
	w.eps[0].Put(1, obuf, 1, origin, win, key, win, win+claimed, 1, target, func(err error) { results = append(results, err) })
	if err := w.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0] == nil || !strings.Contains(results[0].Error(), "remote access error") {
		t.Fatalf("Put resolved as %v, want one remote access error", results)
	}
	got := w.eps[1].Mem().Bytes(win, claimed)
	if string(got[:64]) != string(sent[:64]) || string(got[128:192]) != string(sent[128:]) {
		t.Error("the writes beside the refused one did not land")
	}
	for _, b := range got[16384 : 16384+64] {
		if b != 0 {
			t.Fatal("the refused write moved bytes")
		}
	}
	if c := w.eps[0].Counters(); c.ListPosts != 1 || c.RDMAWritesPosted != 3 || c.Completions != 2 {
		t.Errorf("%d writes in %d posts generated %d completions, want 3 in 1 and 2 (the refused member's, the tail's)",
			c.RDMAWritesPosted, c.ListPosts, c.Completions)
	}
	if live := w.eps[0].wrLive(); live != 0 {
		t.Errorf("%d completion records still out", live)
	}
}
