package model

import "snowboard/internal/trace"

// Ins are the instructions Gen's accesses run: two in each of three
// regions, so that a trial's communications can form segments.
var Ins = [...]trace.Ins{
	trace.DefIns("model_a:w"), trace.DefIns("model_b:r"), trace.DefIns("model_c:w"),
	trace.DefIns("model_a:r"), trace.DefIns("model_b:w"), trace.DefIns("model_c:r"),
}

// gaps are the lengths of the other threads' stretch before a part of a
// byte copy: a few rows, or 15 and 16, on either side of the torn-read
// scan's last lookahead row.
var gaps = [...]int{0, 1, 2, 5, 15, 16}

// Gen decodes a trace from fuzz bytes. The first byte picks the thread
// count (2–9) and, with bit 6, spreads the ids eight apart, up to 64: past
// the inline readers of the race detector and the width of the view's
// thread mask, some a multiple of it apart. Then come three bytes per
// access: thread, operation, address. The operations cover what the
// analyses distinguish — plain and marked reads and writes of 1–8 bytes,
// lock acquire/release, publication (marked store), stack accesses — and
// byte copies. Bit 7 of an access's thread byte makes it the aligned
// 8-byte access of its word — half of all accesses, as a kernel's are
// nearly all — so words gather whole-word history before a partial access
// splits them. The regions cover what the view's private-word skip must
// get right:
//
//   - 0x1000: four adjacent words every thread reaches, at offsets that
//     straddle them; stack and lock-word (atomic) accesses land here too;
//   - 0x2000 + 0x100·thread: words only that thread touches, straddled by
//     nobody else — private, or shared only through a straddling access;
//   - 0x3000 + 0x20·k: a word only thread k touches followed by one every
//     thread does, so an unaligned access of k's covers one of each;
//   - a "far" operation over up to 256 words, so a long trace grows the
//     tables mid-walk.
//
// A byte copy is a thread reading 1 to 8 adjacent parts of 1, 2 or 4 bytes
// with one instruction, from a byte that gives the part count and, per
// part, a byte that may switch to the other threads for one of gaps'
// stretches first, a byte per row: writes into the copied range or
// elsewhere, or reads by the copy instruction. So a switch may tear the
// copy, leave it untorn, or end its run past the lookahead.
func Gen(data []byte) *trace.Trace {
	tr := &trace.Trace{}
	if len(data) == 0 {
		return tr
	}
	threads, stride := 2+int(data[0])%8, 1+7*int(data[0]>>6&1)
	next := func() int { // a copy's next byte, 0 past the end
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	for data = data[1:]; len(data) >= 3; {
		slot, whole, op, sel := int(data[0]&0x7f)%threads, data[0]&0x80 != 0, data[1], data[2]
		data = data[3:]
		th, off := slot*stride, uint64(sel&0x1f)
		a := trace.Access{
			Thread: th,
			Ins:    Ins[int(op>>4)%len(Ins)],
			Addr:   0x1000 + off,
			Size:   1 + (sel>>5)&7,
			Val:    uint64(sel),
		}
		switch op >> 6 {
		case 2:
			a.Addr = 0x2000 + 0x100*uint64(slot) + off
		case 3:
			a.Addr = 0x3000 + 0x20*uint64(slot) + off&0xf
			if off >= 16 { // the shared word of some thread's pair
				a.Addr = 0x3008 + 0x20*(off&7%uint64(threads))
			}
		}
		if op&0xf == 15 {
			size := uint8(1) << (sel >> 5 % 3)
			parts := 1 + next()%8
			for p := 0; p < parts; p++ {
				part := a.Addr + uint64(p)*uint64(size)
				if sw := next(); sw%8 == 0 {
					for g := 0; g < gaps[sw>>3%len(gaps)]; g++ {
						other, x := (slot+1+g%(threads-1))%threads*stride, next()
						switch x % 3 {
						case 0:
							tr.Record(other, Ins[x%len(Ins)], trace.Write, a.Addr+uint64(x>>2)%uint64(parts*int(size)), 1+uint8(x>>5), 0, false, false, false, false, 0)
						case 1:
							tr.Record(other, Ins[x%len(Ins)], trace.Write, 0x4800+uint64(x), 1, 0, false, false, false, false, 0)
						default:
							tr.Record(other, a.Ins, trace.Read, part, size, 0, false, false, false, false, 0)
						}
					}
				}
				tr.Record(th, a.Ins, trace.Read, part, size, 0, false, false, false, false, 0)
			}
			continue
		}
		if whole {
			a.Addr, a.Size = a.Addr&^7, 8
		}
		lock := 0x800 + uint64(sel&3)*8
		if sel&4 != 0 {
			lock = 0x1000 + uint64(sel&3)*8 // a lock word among the shared data
		}
		switch op & 0xf {
		case 0, 1, 2:
			a.Kind = trace.Read
		case 3, 4, 5:
			a.Kind = trace.Write
		case 6:
			a.Kind, a.Marked = trace.Read, true
		case 7:
			a.Kind, a.Marked = trace.Write, true
		case 8: // acquire
			a.Kind, a.Atomic, a.Addr, a.Size, a.Val = trace.Write, true, lock, 8, 1
		case 9: // release
			a.Kind, a.Atomic, a.Addr, a.Size, a.Val = trace.Write, true, lock, 8, 0
		case 10:
			a.Kind, a.Atomic, a.Addr, a.Size = trace.Read, true, lock, 8
		case 11:
			a.Kind, a.Stack = trace.Write, true
		case 12:
			a.Kind, a.Stack, a.Marked = trace.Write, true, true
		case 13: // far read
			a.Kind, a.Addr = trace.Read, 0x4000+uint64(sel)*8+uint64(op>>6)
		default: // far write
			a.Kind, a.Addr = trace.Write, 0x4000+uint64(sel)*8+uint64(op>>6)
		}
		if whole && op&0xf >= 13 {
			a.Addr &^= 7
		}
		tr.Record(a.Thread, a.Ins, a.Kind, a.Addr, a.Size, a.Val, a.Atomic, a.Marked, a.Stack, a.RCU, a.Locks)
	}
	return tr
}
