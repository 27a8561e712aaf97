//go:build dtdebug

package core

import (
	"fmt"
	"strings"
	"testing"
)

// A step that fires on a recycled record must panic at the access, for every
// kind of pooled record, and the record must never be handed out again.
func TestStaleStepPanicsOnRecycledRecord(t *testing.T) {
	ep := newTestWorld(t, 1, DefaultConfig(), 48<<20).eps[0]
	stale := func(what string, step func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "recycled "+what) {
				t.Errorf("a step on a recycled %s: recovered %v, want the use-after-recycle panic", what, r)
			}
		}()
		step()
	}

	sop := ep.getSendOp()
	ep.retireSend(sop)
	stale("send op", sop.poolReadyFn)
	stale("send op", sop.eagerDoneFn)
	if ep.getSendOp() == sop {
		t.Error("a recycled send op was handed out again")
	}

	rop := ep.getRecvOp()
	ep.retireRecv(rop)
	stale("receive op", rop.unpackDoneFn)
	stale("receive op", func() { rop.regDone(nil) })

	inb := ep.getInbound()
	ep.putInbound(inb)
	stale("arrival record", inb.deliveredFn)

	req := ep.newRequest()
	req.complete(nil)
	req.Free()
	stale("request", func() { req.Done() })
	if ep.newRequest() == req {
		t.Error("a freed request was handed out again")
	}
}
