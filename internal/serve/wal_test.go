package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// walFixture returns a representative logged history: create, step batches
// with and without client sequence numbers, a trip barrier, more steps.
func walFixture() []walRecord {
	return []walRecord{
		{T: walOpCreate, Tenant: "acme", Req: &CreateRequest{Scheme: "yukta-supervised", App: "gamess", MaxTimeS: 30}},
		{T: walOpStep, N: 7, Seq: 1},
		{T: walOpStep, N: 3, Seq: 2},
		{T: walOpTrip},
		{T: walOpStep, N: 5},
	}
}

// writeWAL creates a log at path holding the given records.
func writeWAL(t *testing.T, path string, recs []walRecord) {
	t.Helper()
	w, err := createWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	for _, rec := range recs {
		if err := w.append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALRoundTrip checks that appended records read back exactly, and that
// validLen covers the whole healthy file.
func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s-1.wal")
	recs := walFixture()
	writeWAL(t, path, recs)

	got, validLen, err := readWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, recs)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if validLen != fi.Size() {
		t.Fatalf("validLen = %d, file size %d; a healthy log must be fully valid", validLen, fi.Size())
	}

	// A second session log at the same path is an ID collision: refuse.
	if _, err := createWAL(path); err == nil {
		t.Fatal("createWAL overwrote an existing session log")
	}
}

// TestWALDamagedTail checks the two tail-damage modes — a torn final line
// (crash mid-write) and a corrupted final line (CRC mismatch) — both yield
// the valid prefix plus a validLen that truncates the damage away, and that
// truncateWAL then restores a fully healthy log.
func TestWALDamagedTail(t *testing.T) {
	recs := walFixture()
	damage := map[string]func([]byte) []byte{
		"torn": func(b []byte) []byte {
			return b[:len(b)-3] // chop the tail mid-record
		},
		"corrupt": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-5] ^= 0x01 // flip a payload bit in the last record
			return c
		},
	}
	for name, wreck := range damage {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "s-1.wal")
			writeWAL(t, path, recs)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, wreck(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			got, validLen, err := readWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, recs[:len(recs)-1]) {
				t.Fatalf("damaged tail: got %d records %+v; want the %d-record valid prefix", len(got), got, len(recs)-1)
			}
			if err := truncateWAL(path, validLen); err != nil {
				t.Fatal(err)
			}
			healed, healedLen, err := readWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			fi, _ := os.Stat(path)
			if !reflect.DeepEqual(healed, recs[:len(recs)-1]) || healedLen != fi.Size() {
				t.Fatalf("truncated log still damaged: %d records, validLen %d, size %d", len(healed), healedLen, fi.Size())
			}
		})
	}
}

// TestCoalesceOps checks the compaction algebra: consecutive step records
// merge (counts summed, newest Seq kept), trips and drains are barriers, and
// the coalesced list replays to the same positions as the original.
func TestCoalesceOps(t *testing.T) {
	got := coalesceOps(walFixture())
	want := []walRecord{
		{T: walOpCreate, Tenant: "acme", Req: walFixture()[0].Req},
		{T: walOpStep, N: 10, Seq: 2},
		{T: walOpTrip},
		{T: walOpStep, N: 5},
	}
	if len(got) != len(want) {
		t.Fatalf("coalesced to %d records %+v; want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i].T != want[i].T || got[i].N != want[i].N || got[i].Seq != want[i].Seq {
			t.Fatalf("coalesced[%d] = %+v; want %+v", i, got[i], want[i])
		}
	}
	// A step whose client did not use sequencing must not erase the last Seq.
	merged := coalesceOps([]walRecord{{T: walOpStep, N: 2, Seq: 9}, {T: walOpStep, N: 1}})
	if len(merged) != 1 || merged[0].N != 3 || merged[0].Seq != 9 {
		t.Fatalf("seq-preserving merge = %+v; want one step n=3 seq=9", merged)
	}
}

// TestWALCompact checks the atomic rewrite: after compacting onto the
// coalesced ops the file holds exactly those records, and appends keep
// working on the swapped handle.
func TestWALCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s-1.wal")
	w, err := createWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	var ops []walRecord
	for _, rec := range walFixture() {
		if err := w.append(rec); err != nil {
			t.Fatal(err)
		}
		ops = coalesceOps(append(ops, rec))
	}
	before, _ := os.Stat(path)
	if err := w.compact(ops); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink the log (%d -> %d bytes)", before.Size(), after.Size())
	}
	if w.appended != len(ops) {
		t.Fatalf("appended counter = %d after compact; want %d", w.appended, len(ops))
	}

	// The handle now points at the new file: further appends land after the
	// compacted records.
	extra := walRecord{T: walOpStep, N: 2, Seq: 3}
	if err := w.append(extra); err != nil {
		t.Fatal(err)
	}
	got, _, err := readWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops)+1 || !reflect.DeepEqual(got[:len(ops)], ops) || got[len(got)-1] != extra {
		t.Fatalf("post-compact log = %+v; want coalesced ops plus the extra step", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("compaction left its temp file behind")
	}
}

// TestDecodeWALLineRejects enumerates malformed lines: missing CRC field,
// short CRC, non-hex CRC, upper-cased CRC, bad JSON, empty op.
func TestDecodeWALLineRejects(t *testing.T) {
	for _, line := range []string{
		"",
		"{\"t\":\"step\"}",
		"abcd {\"t\":\"step\"}",
		"zzzzzzzz {\"t\":\"step\"}",
		"D6A426C3 {\"t\":\"step\",\"n\":3,\"seq\":1}", // valid as d6a426c3
		"00000000 {\"t\":\"step\"}",
		"00000000 not-json",
	} {
		if _, ok := decodeWALLine(line); ok {
			t.Errorf("decodeWALLine accepted %q", line)
		}
	}
	// And the happy path survives the enumeration.
	enc, err := encodeWALRecord(walRecord{T: walOpStep, N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := decodeWALLine(string(bytes.TrimSuffix(enc, []byte("\n")))); !ok {
		t.Fatal("decodeWALLine rejected a healthy encoded record")
	}
}

// FuzzWALDecode fuzzes the session-log codec. payloads holds one JSON
// record per line; every line that parses into a record with an op kind
// becomes a log record, so its strings are valid UTF-8 exactly as every
// logged request's are (they arrive as JSON). Two properties:
//
//   - round trip: encoding a record, decoding the line and encoding the
//     result gives the same bytes;
//   - damage: flipping bit `bit` of log byte pos (or, with truncate,
//     cutting the log at pos) makes readWAL return exactly the records
//     wholly before the line holding that byte, with validLen their length.
//
// The seed corpus (testdata/fuzz/FuzzWALDecode) includes crc-case-flip: the
// record {"t":"step","n":3,"seq":1}, CRC d6a426c3, with the 0x20 bit of the
// CRC's first digit flipped to give "D6a426c3" — a decoder that scanned the
// CRC with %x accepted it.
func FuzzWALDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, payloads []byte, pos uint, bit uint8, truncate bool) {
		var log []byte
		var recs []walRecord
		var ends []int // ends[k] is the offset just past line k
		for _, p := range bytes.Split(payloads, []byte("\n")) {
			var rec walRecord
			if json.Unmarshal(p, &rec) != nil || rec.T == "" {
				continue
			}
			line, err := encodeWALRecord(rec)
			if err != nil {
				continue
			}
			dec, ok := decodeWALLine(string(line[:len(line)-1]))
			if !ok {
				t.Fatalf("decodeWALLine rejected its own encoding %q", line)
			}
			if again, err := encodeWALRecord(dec); err != nil || !bytes.Equal(again, line) {
				t.Fatalf("re-encoding the decoded record gave %q (err %v), want %q", again, err, line)
			}
			recs = append(recs, dec)
			log = append(log, line...)
			ends = append(ends, len(log))
		}
		if len(log) == 0 {
			return
		}
		i := int(pos % uint(len(log)))
		damaged := bytes.Clone(log)
		if truncate {
			damaged = damaged[:i]
		} else {
			damaged[i] ^= 1 << (bit % 8)
		}
		k := 0
		for ends[k] <= i {
			k++
		}
		var wantLen int64
		if k > 0 {
			wantLen = int64(ends[k-1])
		}
		path := filepath.Join(t.TempDir(), "s.wal")
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		got, validLen, err := readWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		if validLen != wantLen || len(got) != k {
			t.Fatalf("damage at byte %d (line %d, truncate %v): readWAL kept %d records / %d bytes, want %d / %d",
				i, k, truncate, len(got), validLen, k, wantLen)
		}
		for j := range got {
			if !reflect.DeepEqual(got[j], recs[j]) {
				t.Fatalf("record %d read back as %+v, want %+v", j, got[j], recs[j])
			}
		}
	})
}
