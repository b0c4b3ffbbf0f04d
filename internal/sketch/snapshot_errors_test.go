package sketch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/opinion"
)

// Save and Load encode and decode a buffer at a time, with plain loops.
// These tests hold them to the errors the per-value codec they replaced
// returned: which read a truncated stream fails in and with what, that a
// corrupt or mis-summed snapshot is refused whatever it decodes to, and
// that a failing writer's error is the one Save returns.

type goldenSnapshot struct {
	file  string
	g     *graph.Graph
	bytes []byte
	// ends[i] is where region i of the layout ends, and names[i] what a
	// read that runs dry inside it calls itself.
	ends  []int
	names []string
}

func goldenSnapshots(t *testing.T) []goldenSnapshot {
	t.Helper()
	goldens := []goldenSnapshot{
		{file: "testdata/ic_v1.hims", g: testGraph(t, 200)},
		{file: "testdata/oc_v2.hims", g: ocTestGraph(t, 200, opinion.Normal)},
	}
	for i := range goldens {
		s := &goldens[i]
		var err error
		if s.bytes, err = os.ReadFile(s.file); err != nil {
			t.Fatal(err)
		}
		h, err := ReadHeader(bytes.NewReader(s.bytes))
		if err != nil {
			t.Fatal(err)
		}
		members := 0
		for j := 0; j < int(h.Sets); j++ {
			members += int(binary.LittleEndian.Uint32(s.bytes[headerSize+4*j:]))
		}
		lens := headerSize + 4*int(h.Sets)
		s.ends, s.names = []int{headerSize, lens, lens + 4*members}, []string{"snapshot header", "set lengths", "set payload"}
		if h.Weighted() {
			s.ends, s.names = append(s.ends, s.ends[2]+8*int(h.Sets)), append(s.names, "set weights")
		}
		s.ends, s.names = append(s.ends, s.ends[len(s.ends)-1]+8), append(s.names, "snapshot checksum")
		if s.ends[len(s.ends)-1] != len(s.bytes) {
			t.Fatalf("%s: layout ends at %d, file at %d", s.file, s.ends[len(s.ends)-1], len(s.bytes))
		}
	}
	return goldens
}

// Every truncation of both golden snapshots: the read that ran dry names
// itself and wraps exactly the error io.ReadFull gave it — io.EOF where the
// cut falls between two reads (before the magic, before the rest of the
// header, before each buffer of a column, before the checksum),
// io.ErrUnexpectedEOF inside one.
func TestLoadTruncated(t *testing.T) {
	for _, s := range goldenSnapshots(t) {
		region, start := 0, 0
		for cut := 0; cut < len(s.bytes); cut++ {
			for cut >= s.ends[region] {
				start = s.ends[region]
				region++
			}
			want := io.ErrUnexpectedEOF
			if (cut-start)%ioBufSize == 0 || cut == len(snapshotMagic) {
				want = io.EOF
			}
			x, err := Load(bytes.NewReader(s.bytes[:cut]), s.g)
			if x != nil || err == nil {
				t.Fatalf("%s cut at %d: loaded", s.file, cut)
			}
			if !strings.Contains(err.Error(), s.names[region]) || !errors.Is(err, want) {
				t.Fatalf("%s cut at %d: %v, want %v inside the %s", s.file, cut, err, want, s.names[region])
			}
		}
	}
}

// Single-bit flips across both golden snapshots — every bit of the header
// and the checksum, one bit of every 61st payload byte — as they are and
// resealed with a checksum that matches. As it is, a flip is always
// refused. Resealed, it gets as far as the checks behind the checksum:
// what they refuse is refused, what they let through re-saves to the very
// bytes loaded.
func TestLoadCorrupt(t *testing.T) {
	for _, s := range goldenSnapshots(t) {
		var bits []int
		for bit := 0; bit < 8*headerSize; bit++ {
			bits = append(bits, bit)
		}
		for at := headerSize; at < len(s.bytes)-8; at += 61 {
			bits = append(bits, 8*at+at%8)
		}
		for bit := 8 * (len(s.bytes) - 8); bit < 8*len(s.bytes); bit++ {
			bits = append(bits, bit)
		}
		accepted := 0
		for _, bit := range bits {
			mutant := bytes.Clone(s.bytes)
			mutant[bit/8] ^= 1 << (bit % 8)
			if x, err := Load(bytes.NewReader(mutant), s.g); x != nil || err == nil {
				t.Fatalf("%s bit %d flipped: loaded", s.file, bit)
			}

			sealed := resealed(mutant)
			x, err := Load(bytes.NewReader(sealed), s.g)
			if (x == nil) == (err == nil) {
				t.Fatalf("%s bit %d flipped and resealed: index %v, error %v", s.file, bit, x != nil, err)
			}
			if err != nil {
				continue
			}
			accepted++
			var resaved bytes.Buffer
			if err := x.Save(&resaved); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resaved.Bytes(), sealed) {
				t.Fatalf("%s bit %d flipped and resealed: loads, then saves as other bytes", s.file, bit)
			}
		}
		if accepted == 0 {
			t.Fatalf("%s: no resealed flip loaded — the sweep never got behind the checksum", s.file)
		}
	}
}

// A snapshot that passes every check but the last: a member id one bit off
// (still a node of the graph) under the original checksum. Resealed it
// loads — so as it is, the arena is indexed while its sum is taken — and
// yet what comes back is the mismatch and no index; and whether a Load
// succeeds or not, the goroutine that took the sum is gone when it returns.
func TestLoadReturnsNothingUnverified(t *testing.T) {
	for _, s := range goldenSnapshots(t) {
		s.g.Fingerprint()
		base := runtime.NumGoroutine()
		mutant := bytes.Clone(s.bytes)
		mutant[s.ends[1]+40] ^= 1 // low bit of the eleventh member: n = 200 is even, so still < n
		if x, err := Load(bytes.NewReader(resealed(mutant)), s.g); err != nil || x == nil {
			t.Fatalf("%s: the resealed mutant does not load (%v): it proves nothing", s.file, err)
		}
		x, err := Load(bytes.NewReader(mutant), s.g)
		if x != nil || err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("%s: mis-summed snapshot returned index %v, error %v", s.file, x != nil, err)
		}
		// The sum is sent a moment before its goroutine exits.
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after the loads, %d before", s.file, runtime.NumGoroutine(), base)
			}
		}
	}
}

// A well-summed snapshot whose set lists a node twice is refused: Install
// takes sets as duplicate-free, and a doubled member would sit twice in
// its node's index row, of which a later ReplaceSets removes one — leaving
// the node credited with a set it is no longer in.
func TestLoadRefusesRepeatedMember(t *testing.T) {
	for _, s := range goldenSnapshots(t) {
		first, at := 0, s.ends[1] // the first member of the set being read
		for ; ; first++ {
			if binary.LittleEndian.Uint32(s.bytes[headerSize+4*first:]) >= 2 {
				break
			}
			at += 4 * int(binary.LittleEndian.Uint32(s.bytes[headerSize+4*first:]))
		}
		mutant := bytes.Clone(s.bytes)
		copy(mutant[at+4:at+8], mutant[at:at+4])
		x, err := Load(bytes.NewReader(resealed(mutant)), s.g)
		if x != nil || err == nil || !strings.Contains(err.Error(), "twice") {
			t.Fatalf("%s: set %d with its first member repeated: index %v, error %v", s.file, first, x != nil, err)
		}
	}
}

// failAfter accepts limit bytes, then fails (having taken what still fit).
type failAfter struct {
	limit int
	err   error
}

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) <= w.limit {
		w.limit -= len(p)
		return len(p), nil
	}
	n := w.limit
	w.limit = 0
	return n, w.err
}

// A writer that fails at byte k, for k at every layout boundary, either
// side of it, and a stride across the payload: Save returns that error,
// not one of its own, and saves the golden bytes afterwards.
func TestSaveFailingWriter(t *testing.T) {
	failed := errors.New("disk full")
	for _, s := range goldenSnapshots(t) {
		x, err := Load(bytes.NewReader(s.bytes), s.g)
		if err != nil {
			t.Fatal(err)
		}
		ks := []int{0, 1, 3, 4, 5}
		for _, end := range s.ends {
			ks = append(ks, end-1, end, end+1)
		}
		for k := headerSize; k < len(s.bytes); k += 1009 {
			ks = append(ks, k)
		}
		for _, k := range ks {
			if k >= len(s.bytes) {
				continue
			}
			if err := x.Save(&failAfter{limit: k, err: failed}); err != failed {
				t.Fatalf("%s, writer failing at byte %d: Save returned %v", s.file, k, err)
			}
		}
		var whole bytes.Buffer
		if err := x.Save(&whole); err != nil || !bytes.Equal(whole.Bytes(), s.bytes) {
			t.Fatalf("%s: after the failed saves, Save = %v, golden bytes: %v", s.file, err, bytes.Equal(whole.Bytes(), s.bytes))
		}
	}
}
