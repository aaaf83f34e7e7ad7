package gateway

// MemoKeys reports how many memo index keys the gateway attributes to a
// replica, for the external tests.
func MemoKeys(g *Gateway, replica string) int { return g.memo.count(replica) }
