//go:build !dtdebug

package core

// DebugRecords reports whether this build poisons recycled records (the
// dtdebug build tag, debug_on.go). In a production build it does not: the
// guards below compile to nothing and a recycled record goes straight back
// on its free-list.
const DebugRecords = false

// recordStamp is a pooled record's debug state: none, in production.
type recordStamp struct{}

func guardSend(*sendOp)           {}
func guardRecv(*recvOp)           {}
func guardInbound(*inbound)       {}
func guardRequest(*Request)       {}
func poisonSend(*sendOp) bool     { return false }
func poisonRecv(*recvOp) bool     { return false }
func poisonInbound(*inbound) bool { return false }
func poisonRequest(*Request) bool { return false }
