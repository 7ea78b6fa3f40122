package store

import (
	"bytes"
	"reflect"
	"testing"

	"snowboard/internal/corpus"
	"snowboard/internal/pmc"
)

// FuzzStoreDecode throws arbitrary bytes at every artifact decoder the
// store's consumers use — the SBAR envelope itself plus the corpus,
// profile-set, and PMC-set codecs. The contract under test: hostile,
// truncated, or bit-flipped input yields an error, never a panic and never
// a silently wrong artifact; and anything a decoder does accept must
// round-trip (re-encode → re-decode → deep-equal), so a decode success is
// never a lie.
func FuzzStoreDecode(f *testing.F) {
	// Valid artifacts of each kind, enveloped and bare, seed the corpus so
	// the fuzzer starts from decodable inputs and mutates toward edge cases.
	c := corpus.NewCorpus()
	c.Add(&corpus.Prog{Calls: []corpus.Call{{Nr: 0, Args: []corpus.Arg{corpus.Const(7)}}}})
	corpusBuf := corpus.Append(nil, c)
	profiles := []pmc.Profile{{TestID: 0, DFLeader: map[int]bool{}}}
	profBuf := pmc.AppendProfiles(nil, profiles)
	set := pmc.NewSet()
	set.Add(pmc.PMC{Write: pmc.Key{Ins: 1, Addr: 16, Size: 4, Val: 3},
		Read: pmc.Key{Ins: 2, Addr: 16, Size: 4, Val: 3}}, pmc.Pair{Writer: 0, Reader: 1})
	setBuf := pmc.AppendSet(nil, set)

	f.Add(envelope(KindCorpus, corpusBuf))
	f.Add(envelope(KindProfiles, profBuf))
	f.Add(envelope(KindPMCs, setBuf))
	f.Add(envelope(KindReport, []byte(`{"Method":"S-INS-PAIR"}`)))
	f.Add(corpusBuf)
	f.Add(profBuf)
	f.Add(setBuf)
	f.Add([]byte("SBAR"))
	f.Add([]byte("SBAR\x01\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Add([]byte{})
	f.Add([]byte("\x00\xff garbage \x7f"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if kind, payload, err := DecodeEnvelope(data); err == nil {
			// A verified envelope must re-frame to its own bytes' semantics:
			// the payload checksum held, so re-enveloping decodes equal.
			k2, p2, err2 := DecodeEnvelope(envelope(kind, payload))
			if err2 != nil || k2 != kind || !bytes.Equal(p2, payload) {
				t.Fatalf("envelope not stable: %v", err2)
			}
		}
		if c, err := corpus.Parse(data); err == nil {
			buf := corpus.Append(nil, c)
			c2, err := corpus.Parse(buf)
			if err != nil || !reflect.DeepEqual(c2.Progs, c.Progs) {
				t.Fatalf("corpus round-trip broken after accept: %v", err)
			}
		}
		if profs, err := pmc.ParseProfiles(data); err == nil {
			buf := pmc.AppendProfiles(nil, profs)
			p2, err := pmc.ParseProfiles(buf)
			if err != nil || !reflect.DeepEqual(p2, profs) {
				t.Fatalf("profiles round-trip broken after accept: %v", err)
			}
		}
		if s, err := pmc.ParseSet(data); err == nil {
			buf := pmc.AppendSet(nil, s)
			s2, err := pmc.ParseSet(buf)
			if err != nil || !reflect.DeepEqual(s2, s) {
				t.Fatalf("set round-trip broken after accept: %v", err)
			}
		}
	})
}
