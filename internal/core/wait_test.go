package core

import (
	"fmt"
	"go/ast"
	"slices"
	"strings"
	"testing"

	"repro/internal/datatype"
	"repro/internal/mem"
	"repro/internal/simtime"
)

// A process parks once per wait and only its own requests wake it. Each case
// runs three times in one world and holds the last run to its engine events:
// the two process starts, four per eager message (TestEventsPerMessage in
// internal/mpi) and one per resume, so a resume too many is an event too many.
func TestWaitResumesOncePerWait(t *testing.T) {
	dt := datatype.Must(datatype.TypeVector(64, 1, 4, datatype.Int32)) // 256 B, eager
	type body func(t *testing.T, p *simtime.Process, ep *Endpoint, buf [3]mem.Addr)
	// sendTags sends one message per tag; the first batch is waited on with
	// one WaitAll before the next is posted.
	sendTags := func(batches ...[]int) body {
		return func(t *testing.T, p *simtime.Process, ep *Endpoint, buf [3]mem.Addr) {
			for _, tags := range batches {
				reqs := make([]*Request, len(tags))
				for i, tag := range tags {
					reqs[i] = ep.Isend(buf[i], 1, dt, 1, tag)
				}
				WaitAll(p, reqs...)
				for _, r := range reqs {
					r.Free()
				}
			}
		}
	}
	for _, c := range []struct {
		name           string
		sender, recver body
		want           int64 // 2 starts + 4 per message + resumes
	}{{
		// r3 completes while WaitAny(r1, r2) is parked and does not resume it;
		// r2 does. Then WaitAny returns the lowest completed index — r2's, not
		// r3's, which completed first — without parking.
		name:   "WaitAny/woken by its own set only",
		sender: sendTags([]int{3, 2}, []int{1}),
		recver: func(t *testing.T, p *simtime.Process, ep *Endpoint, buf [3]mem.Addr) {
			r1, r2, r3 := ep.Irecv(buf[0], 1, dt, 0, 1), ep.Irecv(buf[1], 1, dt, 0, 2), ep.Irecv(buf[2], 1, dt, 0, 3)
			if i := WaitAny(p, r1, r2); i != 1 || !r3.Done() || r1.Done() {
				t.Errorf("WaitAny(r1, r2) = %d with r1 %v r3 %v, want 1 with r1 pending and r3 done", i, r1.Done(), r3.Done())
			}
			if i := WaitAny(p, r1, r2, r3); i != 1 {
				t.Errorf("WaitAny(r1, r2, r3) = %d, want 1: the lowest completed index", i)
			}
			WaitAll(p, r1, r3)
			r1.Free()
			r2.Free()
			r3.Free()
		},
		want: 2 + 3*4 + 2 + 2,
	}, {
		// Listed twice, r1 counts once: otherwise the wait never ends.
		name:   "WaitAll/a request listed twice",
		sender: sendTags([]int{1, 2}),
		recver: func(t *testing.T, p *simtime.Process, ep *Endpoint, buf [3]mem.Addr) {
			r1, r2 := ep.Irecv(buf[0], 1, dt, 0, 1), ep.Irecv(buf[1], 1, dt, 0, 2)
			WaitAll(p, r1, r2, r1)
			if !r1.Done() || !r2.Done() {
				t.Errorf("WaitAll returned with r1 %v r2 %v", r1.Done(), r2.Done())
			}
			r1.Free()
			r2.Free()
		},
		want: 2 + 2*4 + 1 + 1,
	}, {
		// Both sides sleep past the message; their waits never park (the
		// events are the two sleeps).
		name: "WaitAll/already complete",
		sender: func(t *testing.T, p *simtime.Process, ep *Endpoint, buf [3]mem.Addr) {
			s := ep.Isend(buf[0], 1, dt, 1, 1)
			p.Sleep(simtime.Millisecond)
			WaitAll(p, s)
			s.Free()
		},
		recver: func(t *testing.T, p *simtime.Process, ep *Endpoint, buf [3]mem.Addr) {
			r := ep.Irecv(buf[0], 1, dt, 0, 1)
			p.Sleep(simtime.Millisecond)
			WaitAll(p, r, r)
			r.Free()
		},
		want: 2 + 4 + 2,
	}} {
		for _, backend := range deterministic {
			t.Run(c.name+"/"+backend, func(t *testing.T) {
				w := newWorldOn(t, backend, 2, smallPools(), 32<<20, nil)
				var bufs [2][3]mem.Addr
				for r, ep := range w.eps {
					for i := range bufs[r] {
						bufs[r][i] = allocFor(ep, dt, 1)
					}
				}
				var events int64
				for i := 0; i < 3; i++ {
					e0 := w.eng.Scheduled()
					w.run(t, func(p *simtime.Process, ep *Endpoint) {
						if ep.Rank() == 0 {
							c.sender(t, p, ep, bufs[0])
						} else {
							c.recver(t, p, ep, bufs[1])
						}
					})
					events = w.eng.Scheduled() - e0
				}
				if events != c.want {
					t.Errorf("scheduled %d engine events, want %d", events, c.want)
				}
				for _, ep := range w.eps {
					if ps := ep.PoolStats(); ps.LiveRequests != 0 || !idle(&ep.w) {
						t.Errorf("rank %d: %d live requests, waiter %+v after the run", ep.Rank(), ps.LiveRequests, ep.w)
					}
				}
			})
		}
	}
}

// smallPools is the default configuration with staging pools that fit a
// small test memory.
func smallPools() Config {
	cfg := DefaultConfig()
	cfg.PoolSize = 4 << 20
	return cfg
}

// idle reports whether no process is parked on w and none is due to resume.
func idle(w *waiter) bool { return w.need == 0 && !w.parked && w.sig.Waiters() == 0 }

// The wait contract is checked: one endpoint per wait, one parked process per
// endpoint. A wait on no requests returns at once; a nil entry is a null
// request, skipped.
func TestWaitContract(t *testing.T) {
	dt := datatype.Int32
	mustPanic := func(t *testing.T, want string, f func()) {
		t.Helper()
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
				t.Errorf("panic %q, want one containing %q", msg, want)
			}
		}()
		f()
	}
	for _, backend := range deterministic {
		t.Run("second process/"+backend, func(t *testing.T) {
			w := newWorldOn(t, backend, 2, smallPools(), 32<<20, nil)
			ep0, ep1 := w.eps[0], w.eps[1]
			buf0, buf1 := ep0.Mem().MustAlloc(64), ep1.Mem().MustAlloc(64)
			var r1 *Request
			w.eng.Spawn("rank1", func(p *simtime.Process) {
				r1 = ep1.Irecv(buf1, 1, dt, 0, 1)
				WaitAll(p, r1)
			})
			w.eng.Spawn("rank1-again", func(p *simtime.Process) {
				r2 := ep1.Irecv(buf1+8, 1, dt, 0, 2)
				mustPanic(t, "rank 1: a second process waits", func() { WaitAll(p, r2) })
				mustPanic(t, "rank 1: a second process waits", func() { WaitAny(p, r2) })
			})
			w.eng.Spawn("rank0", func(p *simtime.Process) {
				WaitAll(p, ep0.Isend(buf0, 1, dt, 1, 1), ep0.Isend(buf0, 1, dt, 1, 2))
			})
			if err := w.eng.Run(); err != nil {
				t.Fatal(err)
			}
			if !r1.Done() || !idle(&ep1.w) {
				t.Errorf("the first process's wait: done %v, waiter %+v", r1.Done(), ep1.w)
			}
		})
		t.Run("across endpoints/"+backend, func(t *testing.T) {
			w := newWorldOn(t, backend, 2, smallPools(), 32<<20, nil)
			ep0, ep1 := w.eps[0], w.eps[1]
			buf0, buf1 := ep0.Mem().MustAlloc(64), ep1.Mem().MustAlloc(64)
			w.eng.Spawn("rank0", func(p *simtime.Process) {
				s, r := ep0.Isend(buf0, 1, dt, 1, 1), ep1.Irecv(buf1, 1, dt, 0, 1)
				mustPanic(t, "wait across endpoints", func() { WaitAll(p, s, r) })
				mustPanic(t, "wait across endpoints", func() { WaitAny(p, s, r) })
				WaitAll(p, s)
				WaitAll(p, r)
				WaitAll(p)
				WaitAll(p, nil, s, nil)
				if i := WaitAny(p); i != -1 {
					t.Errorf("WaitAny with no requests = %d, want -1", i)
				}
				if i := WaitAny(p, nil, nil); i != -1 {
					t.Errorf("WaitAny over nil entries = %d, want -1", i)
				}
				if i := WaitAny(p, nil, s, nil); i != 1 {
					t.Errorf("WaitAny(nil, s, nil) = %d, want 1", i)
				}
			})
			if err := w.eng.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// processWaits names the functions of this package that may park a process
// on a Signal: the endpoint waiter, which WaitAll and WaitAny park through,
// and ProbeCtx, which waits for an arrival rather than a request.
var processWaits = []string{"wait", "(*Endpoint).ProbeCtx"}

// isSimtime reports whether e spells simtime.<name>.
func isSimtime(e ast.Expr, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == "simtime" && sel.Sel.Name == name
}

// TestOneWaitPath parses the non-test files of internal/core and fails if a
// process parks anywhere but at the sites above — a per-request park coming
// back — or if Request holds a simtime.Signal again.
func TestOneWaitPath(t *testing.T) {
	fset, files := parseNonTest(t, ".")
	seen, sawRequest := map[string]bool{}, false
	for _, f := range files {
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || ts.Name.Name != "Request" {
						continue
					}
					sawRequest = true
					for _, field := range ts.Type.(*ast.StructType).Fields.List {
						if ft := field.Type; isSimtime(ft, "Signal") {
							t.Errorf("%s: Request holds a simtime.Signal; a request points at its endpoint's waiter", fset.Position(ft.Pos()))
						}
					}
				}
				continue
			}
			fd := decl.(*ast.FuncDecl)
			// The names a *simtime.Process goes by in this function and its
			// closures.
			procs := map[string]bool{}
			ast.Inspect(fd, func(n ast.Node) bool {
				if ft, ok := n.(*ast.FuncType); ok {
					for _, field := range ft.Params.List {
						if st, ok := field.Type.(*ast.StarExpr); ok && isSimtime(st.X, "Process") {
							for _, name := range field.Names {
								procs[name.Name] = true
							}
						}
					}
				}
				return true
			})
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Wait" {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && procs[x.Name] {
					fn := funcName(fd)
					seen[fn] = true
					if !slices.Contains(processWaits, fn) {
						t.Errorf("%s: %s parks a process; only %s may", fset.Position(call.Pos()), fn, strings.Join(processWaits, ", "))
					}
				}
				return true
			})
		}
	}
	// A rename must not turn the test into one that checks nothing.
	for _, fn := range processWaits {
		if !seen[fn] {
			t.Errorf("%s parks no process: the table above is stale", fn)
		}
	}
	if !sawRequest {
		t.Error("no Request type in internal/core: the test is stale")
	}
}
