package instrument

import "math/bits"

// SiteSet is a set of operation-site IDs stored as a bitset. Site IDs
// are dense (rt.OpInfo.ID), so membership costs a shift and a mask on
// the monitor's per-operation path. The zero value is the empty set;
// Add grows the set to hold any non-negative ID, since interpreted
// programs number sites module-wide.
type SiteSet struct {
	words []uint64
}

// Add inserts site into the set.
func (s *SiteSet) Add(site int) {
	w := site >> 6
	if w >= len(s.words) {
		s.words = append(s.words, make([]uint64, w+1-len(s.words))...)
	}
	s.words[w] |= 1 << (uint(site) & 63)
}

// remove deletes site, which must be in the set.
func (s *SiteSet) remove(site int) {
	s.words[site>>6] &^= 1 << (uint(site) & 63)
}

// Has reports whether site is in the set; IDs beyond the set's range,
// negative ones included, are not.
func (s *SiteSet) Has(site int) bool {
	w := uint(site) >> 6
	return w < uint(len(s.words)) && s.words[w]&(1<<(uint(site)&63)) != 0
}

// Len returns the number of sites in the set.
func (s *SiteSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns an independent copy of the set.
func (s *SiteSet) Clone() SiteSet {
	return SiteSet{words: append([]uint64(nil), s.words...)}
}
