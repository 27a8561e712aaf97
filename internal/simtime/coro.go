//go:build go1.23

package simtime

import "iter"

// coro is the control transfer under a Process: resume runs the body until
// it next suspends or returns, suspend hands control back to whoever resumed
// it. Here it is an iter.Pull coroutine, a direct switch on the calling
// thread. The scheduler never sees it, so a switch wakes no idle CPU and its
// cost does not depend on what the machine's other CPUs are doing — which a
// channel hand-off's does (coro_go122.go, for toolchains without iter.Pull).
//
// go.mod stays at go 1.22 because the nested bench module pins that line;
// the constraint above is what admits the Go 1.23 API in this one file.
type coro struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
}

// newCoro returns a coroutine that will run body at its first resume.
func newCoro(body func()) *coro {
	c := &coro{}
	c.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		body()
	})
	return c
}

// resume runs the body until it suspends or returns. A panic in the body
// surfaces here, in the resumer.
func (c *coro) resume() { c.next() }

// suspend returns control to the resumer; it returns at the next resume.
// Only the body may call it.
func (c *coro) suspend() { c.yield(struct{}{}) }
