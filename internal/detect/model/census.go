package model

import (
	"reflect"

	"snowboard/internal/trace"
)

// Census counts, over the traces it is shown, the shapes the analyses
// have to get right and the outputs the model found. Word ownership is the
// model's own: which threads' data accesses touch each 8-byte word, by
// brute force. A generator that stops producing one has lost its teeth,
// and Lost names it.
type Census struct {
	Private, Shared int // data accesses whose words one thread / several threads touch
	StraddleOnly    int // straddling data accesses over two words no second thread touches
	Mixed           int // straddling data accesses over one such word and one shared word
	Wide            int // data accesses by thread ids past a 32-bit thread mask
	Stack, Atomic   int // stack / lock-word accesses to words data accesses share
	Published       int // reads of an address another thread's marked write published

	// Of the shared data accesses. A word is whole until the first of them
	// to cover only part of it, split from then on.
	WholeFast       int // aligned 8-byte accesses to a word still whole
	SplitAfterWhole int // partial accesses that split a word with whole-word history
	WholeAfterSplit int // aligned 8-byte accesses to a split word
	SplitSpilled    int // splits of a word that readers past the inline two had read whole
	HalfSplit       int // straddling accesses over one split word and one still whole

	// Of the read runs the torn-read scan collects: a read continued by
	// its thread's next access, the same instruction reading on from where
	// it ended, within the lookahead.
	Gated   int // traces with no switch to another thread inside a run
	Scanned int // traces with one
	Untorn  int // of those, traces without a torn read
	Edge    int // runs continued on the lookahead's last row
	Beyond  int // runs that would continue one row past it

	Races, Pairs, Segments, Torn int // traces with any
}

// Add counts tr's shapes and the outputs m the model derived from it.
func (c *Census) Add(tr *trace.Trace, m *Trial) {
	words := func(i int) (lo, hi uint64) { return tr.AddrAt(i) >> 3, (tr.EndAt(i) - 1) >> 3 }
	data := func(i int) bool { return !tr.StackAt(i) && !tr.AtomicAt(i) }
	owners := make(map[uint64]map[int]bool) // word → threads of its data accesses
	for i := 0; i < tr.Len(); i++ {
		if !data(i) {
			continue
		}
		lo, hi := words(i)
		for _, w := range []uint64{lo, hi} {
			if owners[w] == nil {
				owners[w] = make(map[int]bool)
			}
			owners[w][tr.ThreadAt(i)] = true
		}
	}
	type history struct{ whole, split, spilled bool }
	hist := make(map[uint64]*history)
	published := make(map[uint64]int) // address → 1 + thread of its last marked write
	for i := 0; i < tr.Len(); i++ {
		lo, hi := words(i)
		one, other := len(owners[lo]) > 1, len(owners[hi]) > 1
		shared := data(i) && (one || other)
		switch {
		case tr.StackAt(i):
			c.Stack += btoi(one)
		case tr.AtomicAt(i):
			c.Atomic += btoi(one)
		default:
			c.Shared += btoi(shared)
			c.Private += btoi(!shared)
			c.Wide += btoi(tr.ThreadAt(i) >= 32)
			c.StraddleOnly += btoi(lo != hi && !one && !other)
			c.Mixed += btoi(lo != hi && one != other)
			if tr.IsWriteAt(i) && tr.MarkedAt(i) {
				published[tr.AddrAt(i)] = 1 + tr.ThreadAt(i)
			} else if p := published[tr.AddrAt(i)]; !tr.IsWriteAt(i) && p != 0 && p != 1+tr.ThreadAt(i) {
				c.Published++
			}
		}
		if !shared {
			continue
		}
		for _, w := range []uint64{lo, hi} {
			if hist[w] == nil {
				hist[w] = &history{}
			}
		}
		if tr.AddrAt(i)&7 == 0 && tr.SizeAt(i) == 8 {
			h := hist[lo]
			c.WholeFast += btoi(!h.split)
			c.WholeAfterSplit += btoi(h.split)
			h.whole = true
			h.spilled = h.spilled || (!h.split && !tr.IsWriteAt(i) && tr.ThreadAt(i) >= 2)
			continue
		}
		c.HalfSplit += btoi(hist[lo].split != hist[hi].split)
		for _, h := range []*history{hist[lo], hist[hi]} {
			c.SplitAfterWhole += btoi(!h.split && h.whole)
			c.SplitSpilled += btoi(!h.split && h.spilled)
			h.split = true
		}
	}

	switched := false
	for j := 0; j < tr.Len(); j++ {
		if tr.KindAt(j) != trace.Read {
			continue
		}
		for k := j + 1; k < tr.Len() && k <= j+lookahead+1; k++ {
			if tr.ThreadAt(k) != tr.ThreadAt(j) {
				continue
			}
			if tr.InsAt(k) == tr.InsAt(j) && tr.KindAt(k) == trace.Read && tr.AddrAt(k) == tr.EndAt(j) {
				switched = switched || j+1 < k && k <= j+lookahead
				c.Edge += btoi(k == j+lookahead)
				c.Beyond += btoi(k == j+lookahead+1)
			}
			break
		}
	}
	c.Gated += btoi(!switched)
	c.Scanned += btoi(switched)
	c.Untorn += btoi(switched && len(m.Torn) == 0)

	c.Races += btoi(len(m.Races) > 0)
	c.Pairs += btoi(len(m.Pairs) > 0)
	c.Segments += btoi(len(m.Segments) > 0)
	c.Torn += btoi(len(m.Torn) > 0)
}

// Lost names the counters still at zero.
func (c *Census) Lost() []string {
	var out []string
	v := reflect.ValueOf(c).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Int() == 0 {
			out = append(out, v.Type().Field(i).Name)
		}
	}
	return out
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
