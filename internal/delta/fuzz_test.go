package delta

import (
	"bytes"
	"reflect"
	"testing"

	"themecomm/internal/itemset"
)

// FuzzTCDeltaParse throws arbitrary bytes at the TCDELTA parser: malformed,
// truncated or hostile inputs must produce an error, never a panic, and any
// input the parser accepts must survive a Write/Read round trip unchanged —
// the parsed form is the canonical one.
func FuzzTCDeltaParse(f *testing.F) {
	// Valid deltas, in full and in fragments.
	f.Add([]byte("TCDELTA 1\nAV 2\nE+ 0 1\nE- 2 3\nT 0 1 2 3\n"))
	f.Add([]byte("TCDELTA 1\n# comment\n\nT 4 alice bob\n"))
	f.Add([]byte("TCDELTA 1\n"))
	f.Add([]byte("TCDELTA 1\nV- 3\nT- 0 1 2\n"))
	f.Add([]byte("TCDELTA 1\nV-\n"))
	f.Add([]byte("TCDELTA 1\nV- -1\n"))
	f.Add([]byte("TCDELTA 1\nT- 0\n"))
	// I lines: the names of the items a journaled delta introduces.
	f.Add([]byte("TCDELTA 1\nI 5 coffee\nI 6 two  words\nT 0 5 6\n"))
	f.Add([]byte("TCDELTA 1\nI 6 a\nI 5 b\n"))
	f.Add([]byte("TCDELTA 1\nI 5 a\nI 5 a\n"))
	f.Add([]byte("TCDELTA 1\nI 5\n"))
	f.Add([]byte("TCDELTA 1\nI x name\n"))
	f.Add([]byte("TCDELTA 1\nI 4294967296 x\n"))
	// Malformed: wrong header, truncated records, bad numbers, self-loops,
	// out-of-range identifiers, unknown record types.
	f.Add([]byte(""))
	f.Add([]byte("TCDELTA 2\n"))
	f.Add([]byte("TCDELTA 1\nAV\n"))
	f.Add([]byte("TCDELTA 1\nAV -1\n"))
	f.Add([]byte("TCDELTA 1\nE+ 0\n"))
	f.Add([]byte("TCDELTA 1\nE+ 5 5\n"))
	f.Add([]byte("TCDELTA 1\nE- 0 99999999999999999999\n"))
	f.Add([]byte("TCDELTA 1\nT 0\n"))
	f.Add([]byte("TCDELTA 1\nT -3 1\n"))
	f.Add([]byte("TCDELTA 1\nX 1 2\n"))
	f.Add([]byte("TCDELTA 1\nT 0 4294967296\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Without a dictionary: named items must be rejected, not resolved.
		d, err := Read(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		// Accepted input: the parsed delta must re-serialize and re-parse to
		// itself (Write emits numeric identifiers, so no dictionary is needed
		// on the way back).
		var buf bytes.Buffer
		if err := Write(&buf, d); err != nil {
			t.Fatalf("Write of accepted delta failed: %v", err)
		}
		again, err := Read(bytes.NewReader(buf.Bytes()), nil)
		if err != nil {
			t.Fatalf("re-parse of serialized delta failed: %v\nserialized:\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(d, again) {
			t.Fatalf("round trip changed the delta:\nfirst:  %+v\nsecond: %+v", d, again)
		}

		// With a dictionary: names intern instead of erroring; still no panic.
		dict := itemset.NewDictionary()
		if _, err := Read(bytes.NewReader(data), dict); err != nil {
			return
		}
	})
}
