//go:build !go1.23

package simtime

// coro for toolchains older than Go 1.23 (see coro.go): the body runs on a
// goroutine of its own and control passes over a pair of channels, so every
// switch goes through the scheduler.
type coro struct {
	wake chan struct{} // resumer to body
	back chan struct{} // body to resumer
}

// newCoro returns a coroutine that will run body at its first resume.
func newCoro(body func()) *coro {
	c := &coro{wake: make(chan struct{}), back: make(chan struct{})}
	go func() {
		<-c.wake
		body()
		c.back <- struct{}{}
	}()
	return c
}

// resume runs the body until it suspends or returns.
func (c *coro) resume() {
	c.wake <- struct{}{}
	<-c.back
}

// suspend returns control to the resumer; it returns at the next resume.
// Only the body may call it.
func (c *coro) suspend() {
	c.back <- struct{}{}
	<-c.wake
}
