//go:build !dtdebug

package core

// DebugRecords reports whether this build poisons recycled records (the
// dtdebug build tag, debug_on.go). In a production build it does not: the
// guards below compile to nothing, a recycled record goes straight back on
// its free-list, and a plan's window is trusted on its key.
const DebugRecords = false

// recordStamp is a pooled record's debug state: none, in production.
type recordStamp struct{}

func guardSend(*sendOp)            {}
func guardRecv(*recvOp)            {}
func guardInbound(*inbound)        {}
func guardRequest(*Request)        {}
func poisonSend(*sendOp) bool      { return false }
func poisonRecv(*recvOp) bool      { return false }
func poisonInbound(*inbound) bool  { return false }
func poisonRequest(*Request) bool  { return false }
func poisonWindow(*wrSet) bool     { return false }
func checkPlan(*Endpoint, *sendOp) {}
