package obs

// What follows is used only by this package's tests.

// Merge accumulates another snapshot into this one.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	s.Count += o.Count
	s.SumUs += o.SumUs
	if o.MaxUs > s.MaxUs {
		s.MaxUs = o.MaxUs
	}
	if len(s.Buckets) < len(o.Buckets) {
		b := make([]uint64, len(o.Buckets))
		copy(b, s.Buckets)
		s.Buckets = b
	}
	for i, n := range o.Buckets {
		s.Buckets[i] += n
	}
}

// Find returns the first span named name in a depth-first walk of the
// subtree rooted at s, or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if m := c.Find(name); m != nil {
			return m
		}
	}
	return nil
}
