package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/datatype"
	"repro/internal/fault"
	"repro/internal/mem"
)

// Doorbell batches resolve through one completion record signaled at the
// batch's tail (wr.go). These tests take a Multi-W transfer apart between
// engine events: 72 runs of 512 B, half a megabyte apart — past what group
// registration bridges — so each run has a region of its own on either side
// and one run's registration can be pulled out from under the transfer
// without touching its neighbours'.

const batchRuns, batchStride = 72, 512 << 10

var batchVec = datatype.Must(datatype.TypeVector(batchRuns, 128, batchStride/4, datatype.Int32))

// denseVec is the same 72 runs a kilobyte apart, for the cases that need no
// region per run.
var denseVec = datatype.Must(datatype.TypeVector(batchRuns, 128, 256, datatype.Int32))

// multiW starts one Multi-W message of dt, 0 → 1, in a fresh world on the
// named backend with inj (nil: none) attached.
func multiW(t *testing.T, backend string, dt *datatype.Type, inj *fault.Injector) (w *testWorld, s, r *Request, rbuf mem.Addr, sent []byte) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Scheme = SchemeMultiW
	w = newWorldOn(t, backend, 2, cfg, dt.Extent()+(60<<20), inj)
	sbuf := allocFor(w.eps[0], dt, 1)
	rbuf = allocFor(w.eps[1], dt, 1)
	sent = fillMsg(w.eps[0], sbuf, dt, 1, 0x3C)
	r = w.eps[1].Irecv(rbuf, 1, dt, 0, 9)
	s = w.eps[0].Isend(sbuf, 1, dt, 1, 9)
	return w, s, r, rbuf, sent
}

// batchWorld starts one Multi-W message 0 → 1 and steps the engine until the
// sender has rung its first doorbell.
func batchWorld(t *testing.T) (w *testWorld, s, r *Request, rbuf mem.Addr) {
	t.Helper()
	w, s, r, rbuf, _ = multiW(t, "sim", batchVec, nil)
	for w.eps[0].wrLive() == 0 {
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
	reg := ep.Mem().Reg().Find(a, n)
	if reg == nil {
		t.Fatalf("no region of rank %d covers [%#x,+%d)", ep.Rank(), a, n)
	}
	return reg
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
	}
}

// An unsignaled member of a batch that the responder refuses — no injector:
// its target region went away — completes with its error ahead of the
// batch's tail. The record keeps the error and stays out until the tail's
// completion resolves it, and the send aborts then, once.
func TestBatchMemberFailureAbortsOnce(t *testing.T) {
	t.Run("responder refuses a member", batchMemberRefused)
	for _, backend := range deterministic {
		for _, row := range batchFaultRows {
			t.Run(backend+"/"+row.name, func(t *testing.T) { row.run(t, backend) })
		}
	}
}

func batchMemberRefused(t *testing.T) {
	w, s, r, rbuf := batchWorld(t)
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

// batchFaultRow is one injected-fault case of a dense 72-run Multi-W message
// — under the release rule a doorbell of 64 plain writes, one of 7, and the
// immediate's write on its own — with a seed chosen so that the counters
// below prove the case occurred (the draws follow the posts, which are the
// same on sim and shm).
type batchFaultRow struct {
	name      string
	fc        fault.Config
	delivered bool  // byte-identical; otherwise aborted, once, on both sides
	retries   int64 // the sender's FaultRetries: one per re-ring, however many members it carries
	faults    fault.Stats
	writes    int64 // RDMA writes that reached the NIC
	// atRetry, when set, looks at the record that scheduled the first retry.
	atRetry func(t *testing.T, rec *wrRec, rbuf mem.Addr)
}

var batchFaultRows = []batchFaultRow{
	// The post call refuses the first doorbell whole: nothing of it reached
	// the NIC, and the record rings it again instead of aborting the op.
	{name: "doorbell rejected once", fc: fault.Config{Seed: 11, PostFailRate: 0.5},
		delivered: true, retries: 1, faults: fault.Stats{PostFaults: 1}, writes: batchRuns},
	// The first doorbell's signaled tail fails after its 63 members landed:
	// the record re-rings that one descriptor, under the count of all 64.
	{name: "tail fails once", fc: fault.Config{Seed: 193, CQEErrorRate: 0.02},
		delivered: true, retries: 1, faults: fault.Stats{CQEFaults: 1}, writes: batchRuns + 1,
		atRetry: func(t *testing.T, rec *wrRec, rbuf mem.Addr) {
			if rec.n != 64 || len(rec.batch) != 1 || rec.batch[0].RemoteAddr != rbuf+63*1024 {
				t.Errorf("the retry is of %d descriptors of a record settling %d, want the 64th run's write alone", len(rec.batch), rec.n)
			}
		}},
	// Every attempt of every descriptor fails transiently: the first
	// doorbell is rung whole seven times, then the op aborts — and the units
	// held behind it resolve without reaching the NIC.
	{name: "retries exhausted", fc: fault.Config{Seed: 1, CQEErrorRate: 1},
		retries: faultRetryLimit, faults: fault.Stats{CQEFaults: 64 * (faultRetryLimit + 1)}, writes: 64 * (faultRetryLimit + 1)},
	// A member of the first doorbell fails for good: no retry, one abort.
	{name: "permanent member fault", fc: fault.Config{Seed: 2, CQEErrorRate: 0.03, PermanentRate: 1},
		faults: fault.Stats{CQEFaults: 2, Permanent: 2}, writes: 64},
}

func (row batchFaultRow) run(t *testing.T, backend string) {
	inj := fault.New(row.fc)
	w, s, r, rbuf, sent := multiW(t, backend, denseVec, inj)
	retried := false
	for w.eng.Step() {
		if !retried && row.atRetry != nil && w.eps[0].Counters().FaultRetries > 0 {
			retried = true
			for _, rec := range w.eps[0].wrTab[1:] {
				if rec.attempt > 0 {
					row.atRetry(t, rec, rbuf)
				}
			}
		}
	}
	c := w.eps[0].Counters()
	if got := inj.Stats(); got != row.faults || c.FaultRetries != row.retries || c.RDMAWritesPosted != row.writes {
		t.Fatalf("seed %d drew %+v for %d retries and %d writes posted; the case is %+v, %d and %d",
			row.fc.Seed, got, c.FaultRetries, c.RDMAWritesPosted, row.faults, row.retries, row.writes)
	}
	if !s.Done() || !r.Done() {
		t.Fatalf("the world went quiet with the send done %v, the receive %v", s.Done(), r.Done())
	}
	if row.delivered {
		if s.Err != nil || r.Err != nil || !bytes.Equal(readMsg(w.eps[1], rbuf, denseVec, 1), sent) {
			t.Errorf("send %v, receive %v, or the bytes differ", s.Err, r.Err)
		}
		quiesced(t, w, 0, 0)
		return
	}
	if !fault.IsInjected(s.Err) || !errors.Is(r.Err, ErrRemoteAbort) {
		t.Errorf("send failed with %v, receive with %v; want the injected fault and the peer's abort", s.Err, r.Err)
	}
	quiesced(t, w, 1, 1)
}

// An immediate never announces data that has not landed. The message is one
// doorbell's worth, 47 plain writes and the immediate's; members of it draw a
// transient fault, and the record rings them again, all in one retry, while
// the immediate's write — sealed as a unit of its own — is held back. The
// world is stepped event by event: at no point is the receive done with a run
// missing, and when the retry is scheduled runs are missing and it is not
// done.
func TestImmediateWaitsForRerungMember(t *testing.T) {
	const runs, seed, faults = 48, 7, 2
	dt := datatype.Must(datatype.TypeVector(runs, 128, 256, datatype.Int32))
	for _, backend := range deterministic {
		t.Run(backend, func(t *testing.T) {
			inj := fault.New(fault.Config{Seed: seed, CQEErrorRate: 0.05})
			w, s, r, rbuf, sent := multiW(t, backend, dt, inj)
			landed := func() bool { return bytes.Equal(readMsg(w.eps[1], rbuf, dt, 1), sent) }
			c, retrying := w.eps[0].Counters(), false
			for w.eng.Step() {
				if r.Done() && !landed() {
					t.Fatal("the receive completed with a run of the message still missing")
				}
				if !retrying && c.FaultRetries > 0 {
					if retrying = true; landed() || r.Done() {
						t.Fatalf("at the first retry: every run landed %v, receive done %v", landed(), r.Done())
					}
				}
			}
			if got := inj.Stats(); got.CQEFaults != faults || c.FaultRetries != 1 || c.RDMAWritesPosted != runs+faults || c.ListPosts != 1+2+1 {
				t.Fatalf("seed %d drew %+v for %d retries, %d writes in %d posts; the case is %d members re-rung together (the RTS, two rings, the immediate)",
					seed, got, c.FaultRetries, c.RDMAWritesPosted, c.ListPosts, faults)
			}
			if s.Err != nil || r.Err != nil || !r.Done() || !landed() {
				t.Errorf("send %v, receive %v (done %v), bytes identical %v", s.Err, r.Err, r.Done(), landed())
			}
			quiesced(t, w, 0, 0)
		})
	}
}

// One op's immediates arrive in segment order (stagedArrival indexes the
// segments by arrival count). A four-segment message whose segment 1 draws
// one transient fault — BC-SPUP's one write of it, or one of RWG-UP's gather
// writes — is delivered byte-identical with the segment counts of a
// fault-free run: segment 2 is not posted before segment 1 has landed.
func TestSegmentOrderUnderRetry(t *testing.T) {
	dt, count := testShapes()[0].dt, 64 // 512 KiB: four 128 KiB segments
	for _, tc := range []struct {
		scheme Scheme
		rate   float64
		seeds  map[string]int64 // the backends' gather limits differ, and so the draws
	}{
		{SchemeBCSPUP, 0.3, map[string]int64{"sim": 32, "shm": 32}},
		{SchemeRWGUP, 0.01, map[string]int64{"sim": 11, "shm": 7}},
	} {
		for _, backend := range deterministic {
			t.Run(fmt.Sprintf("%v/%s", tc.scheme, backend), func(t *testing.T) {
				// run sends the message once and reports both ranks'
				// segment counts, and which segment the sender's first retry
				// was of.
				run := func(inj *fault.Injector) (segs [2]int64, retried int) {
					cfg := DefaultConfig()
					cfg.Scheme = tc.scheme
					w := newWorldOn(t, backend, 2, cfg, 64<<20, inj)
					sbuf, rbuf := allocFor(w.eps[0], dt, count), allocFor(w.eps[1], dt, count)
					sent := fillMsg(w.eps[0], sbuf, dt, count, 0x42)
					r := w.eps[1].Irecv(rbuf, count, dt, 0, 3)
					s := w.eps[0].Isend(sbuf, count, dt, 1, 3)
					retried = -1
					for w.eng.Step() {
						if retried < 0 && w.eps[0].Counters().FaultRetries > 0 {
							retried = retriedSegment(w.eps[0])
						}
					}
					if s.Err != nil || r.Err != nil || !r.Done() || !bytes.Equal(readMsg(w.eps[1], rbuf, dt, count), sent) {
						t.Fatalf("send %v, receive %v (done %v), or the bytes differ", s.Err, r.Err, r.Done())
					}
					checkNoLeaks(t, w)
					return [2]int64{w.eps[0].Counters().SegmentsPipelined, w.eps[1].Counters().SegmentsPipelined}, retried
				}
				clean, _ := run(nil)
				inj := fault.New(fault.Config{Seed: tc.seeds[backend], CQEErrorRate: tc.rate})
				faulted, retried := run(inj)
				if got := inj.Stats(); got.CQEFaults != 1 || retried != 1 {
					t.Fatalf("seed %d drew %+v and the retry was of segment %d; the case is one fault, in segment 1", tc.seeds[backend], got, retried)
				}
				if clean != [2]int64{4, 4} || faulted != clean {
					t.Errorf("segments pipelined (sender, receiver): %v without faults, %v with; want 4 and 4 both times", clean, faulted)
				}
			})
		}
	}
}

// retriedSegment says which staged segment of rank 0's one send the write
// waiting for its retry targets.
func retriedSegment(ep *Endpoint) int {
	op := ep.peers[1].sends[0]
	for _, rec := range ep.wrTab[1:] {
		for k, sg := range op.ctsSegs {
			if a := rec.wr.RemoteAddr; rec.attempt > 0 && a >= sg.addr && a < sg.addr+mem.Addr(op.segSize) {
				return k
			}
		}
	}
	return -1
}

// A Put's list posts resolve through the same batch records: three writes
// in one doorbell, of which the middle one — an unsignaled member — fails.
func TestRMAListMemberFailure(t *testing.T) {
	const claimed = 32 << 10
	origin := datatype.Must(datatype.TypeContiguous(48, datatype.Int32))
	target := datatype.Must(datatype.TypeIndexed([]int{16, 16, 16}, []int{0, 4096, 32}, datatype.Int32))
	// put3 exposes a window of which registered bytes are registered, puts
	// the 192 bytes into it, and returns what the Put resolved with and the
	// window's bytes.
	put3 := func(t *testing.T, backend string, inj *fault.Injector, registered int64) (w *testWorld, results []error, sent, got []byte) {
		w = newWorldOn(t, backend, 2, DefaultConfig(), 48<<20, inj)
		win := w.eps[1].Mem().MustAlloc(claimed)
		key, _, err := w.eps[1].ExposeWindow(win, registered)
		if err != nil {
			t.Fatal(err)
		}
		obuf := allocFor(w.eps[0], origin, 1)
		sent = fillMsg(w.eps[0], obuf, origin, 1, 0x5E)
		w.eps[0].Put(1, obuf, 1, origin, win, key, win, win+claimed, 1, target, func(err error) { results = append(results, err) })
		if err := w.eng.Run(); err != nil {
			t.Fatal(err)
		}
		if live := w.eps[0].wrLive(); live != 0 {
			t.Errorf("%d completion records still out", live)
		}
		return w, results, sent, w.eps[1].Mem().Bytes(win, claimed)
	}

	// The target layout's middle run lies outside the window's registration,
	// so the responder refuses the middle write: the Put reports that error,
	// once, after the tail has completed, and its neighbours have landed.
	t.Run("responder refuses the member", func(t *testing.T) {
		w, results, sent, got := put3(t, "sim", nil, 4096)
		if len(results) != 1 || results[0] == nil || !strings.Contains(results[0].Error(), "remote access error") {
			t.Fatalf("Put resolved as %v, want one remote access error", results)
		}
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
	})

	// The injector fails the middle write transiently (seed 32: the second of
	// four draws): the record rings that one write again and the Put
	// resolves clean, once, with all three runs in place.
	for _, backend := range deterministic {
		t.Run(backend+"/the member is rung again", func(t *testing.T) {
			inj := fault.New(fault.Config{Seed: 32, CQEErrorRate: 0.3})
			w, results, sent, got := put3(t, backend, inj, claimed)
			if c := w.eps[0].Counters(); inj.Stats().CQEFaults != 1 || c.FaultRetries != 1 || c.ListPosts != 2 || c.RDMAWritesPosted != 4 || c.Completions != 3 {
				t.Fatalf("drew %+v: %d retries, %d writes in %d posts, %d completions; the case is the member's error, the tail's and the re-rung member's",
					inj.Stats(), c.FaultRetries, c.RDMAWritesPosted, c.ListPosts, c.Completions)
			}
			if len(results) != 1 || results[0] != nil {
				t.Fatalf("Put resolved as %v, want once and clean", results)
			}
			if string(got[:64]) != string(sent[:64]) || string(got[16384:16384+64]) != string(sent[64:128]) || string(got[128:192]) != string(sent[128:]) {
				t.Error("a run of the Put is not in place")
			}
		})
	}
}
