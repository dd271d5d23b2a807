package trace

// ThreadCounts returns thread t's stream totals.
func (s *Stream) ThreadCounts(t int) Counts { return s.counts[t] }
