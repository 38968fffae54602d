package blocking

// shouldBlockLinear is the reference the tokenized index is held equal to:
// the original full scan of every rule of every list, in list order. Any
// matching exception wins outright; otherwise any matching block rule
// blocks.
func shouldBlockLinear(e *Engine, req Request) bool {
	m := newMatchCtx(&req)
	blocked := false
	for _, l := range e.lists {
		for i := range l.Rules {
			r := &l.Rules[i]
			if !r.matches(&m) {
				continue
			}
			if r.Exception {
				return false
			}
			blocked = true
		}
	}
	return blocked
}
