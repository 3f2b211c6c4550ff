package vm

import (
	"slices"
	"sort"
	"sync"
)

// accessedAndClear tests and clears the referenced bit of any PTE in
// this space that maps the given object page (the clock algorithm's
// probe). It reports whether the page had been referenced.
func (as *AddressSpace) accessedAndClear(obj *Object, idx int64) bool {
	as.mu.Lock()
	defer as.mu.Unlock()
	ref := false
	for _, m := range as.maps {
		if m.Obj != obj {
			continue
		}
		if base, ok := m.pageAddr(idx); ok {
			if e, ok := as.pt[base]; ok && e.accessed {
				e.accessed = false
				as.pt[base] = e
				ref = true
			}
		}
	}
	return ref
}

// Pager is the clock (second-chance) page-replacement algorithm of the
// single level store, where memory is a cache of the persistent image:
// a page leaves memory only when its object's page source gives back the
// same bytes — the page is clean, and the source is a store's view of
// the object's last barrier (Object.Repoint) or, before its first, of
// the epoch it was restored from (Object.SetSource). Evicting drops the frame
// and writes nothing; the object's demand fault brings the page back.
// The pager keeps only its clock hand: each sweep covers the objects of
// the address spaces its caller passes.
type Pager struct {
	pm    *PhysMem
	meter *Meter

	mu   sync.Mutex
	hand int // clock hand: the object the next sweep starts at
}

// NewPager creates a pager.
func NewPager(pm *PhysMem, meter *Meter) *Pager {
	return &Pager{pm: pm, meter: meter}
}

// Reclaim runs the clock over the objects spaces map until it has
// evicted up to target pages, giving referenced pages a second chance,
// and returns the number evicted. Only an object paging from a view that
// still stands has pages that may leave, and of those only the clean
// ones; a page an access is copying stays.
func (p *Pager) Reclaim(spaces []*AddressSpace, target int) int {
	var objects []*Object
	for _, as := range spaces {
		for _, m := range as.Mappings() {
			if !slices.Contains(objects, m.Obj) && m.Obj.pagesFromView() {
				objects = append(objects, m.Obj)
			}
		}
	}
	if len(objects) == 0 {
		return 0
	}
	p.mu.Lock()
	hand := p.hand
	p.hand = (hand + 1) % len(objects)
	p.mu.Unlock()

	evicted := 0
	// Two full sweeps bound the scan: the first clears referenced
	// bits, the second can evict everything if needed.
	for sweep := 0; sweep < 2 && evicted < target; sweep++ {
		for oi := 0; oi < len(objects) && evicted < target; oi++ {
			obj := objects[(hand+oi)%len(objects)]
			pages := obj.ResidentPages()
			sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
			for _, idx := range pages {
				if evicted >= target {
					break
				}
				referenced := false
				for _, s := range spaces {
					if s.accessedAndClear(obj, idx) {
						referenced = true
					}
				}
				if referenced {
					continue // second chance
				}
				if p.evict(obj, idx, spaces) {
					evicted++
				}
			}
		}
	}
	return evicted
}

// evict drops one page from memory if it may leave (Object.evict).
func (p *Pager) evict(obj *Object, idx int64, spaces []*AddressSpace) bool {
	f := obj.evict(idx)
	if f == nil {
		return false
	}
	for _, s := range spaces {
		s.invalidateObjectPage(obj, idx)
	}
	p.pm.Free(f)
	if p.meter != nil {
		p.meter.PageOuts.Add(1)
	}
	return true
}

// HottestPages orders the pages of a heat snapshot hottest-first, used
// by lazy restore to eagerly page in the working set (the paper's
// clock-derived warm-up). The snapshot itself is left in page order.
func HottestPages(heat []PageHeat) []int64 {
	byCount := append([]PageHeat(nil), heat...)
	sort.Slice(byCount, func(i, j int) bool {
		if byCount[i].Count != byCount[j].Count {
			return byCount[i].Count > byCount[j].Count
		}
		return byCount[i].Page < byCount[j].Page
	})
	out := make([]int64, len(byCount))
	for i, h := range byCount {
		out[i] = h.Page
	}
	return out
}
