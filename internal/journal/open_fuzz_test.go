package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalOpen drives Open over arbitrary file bytes, the state a
// crash, a torn write or a hostile disk can leave behind. For every file
// it checks that Open does not panic; for every file Open recovers, that
// each returned record is the trimmed text of a newline-terminated line
// after the header, in file order, and that an Append followed by a
// reopen returns the same records plus the new one. Plain `go test` runs
// the seeds; `go test -fuzz FuzzJournalOpen` explores.
func FuzzJournalOpen(f *testing.F) {
	const h = `{"magic":"m","seed":7}` + "\n"
	for _, seed := range []string{
		"",                                      // missing: start fresh
		h,                                       // header only
		h + `{"n":0}` + "\n" + `{"n":1}` + "\n", // valid
		h + `{"n":0}` + "\n" + `{"n":`,          // torn final line
		`{"magic":"m","se`,                      // torn header
		h + `{"n":0}` + "\n" + `{"n` + "\n" + `{"n":2}` + "\n", // mid-file corrupt
		h + "\n  " + `{"n":0}` + " \r\n\n",                     // blank and padded lines
	} {
		f.Add([]byte(seed))
	}
	hdr := testHdr{Magic: "m", Seed: 7}
	// Inputs run one at a time in each fuzzing process, so they share one
	// file; WriteFile truncates it.
	path := filepath.Join(f.TempDir(), "j.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs, err := Open(path, hdr, nil)
		if err != nil {
			return
		}
		// The complete lines after the header: everything up to the last
		// newline, when the header itself is complete.
		var complete [][]byte
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			complete = bytes.Split(data[nl+1:bytes.LastIndexByte(data, '\n')+1], []byte("\n"))
		}
		i := 0
		for k, rec := range recs {
			for i < len(complete) && !bytes.Equal(bytes.TrimSpace(complete[i]), rec) {
				i++
			}
			if i == len(complete) {
				j.Close()
				t.Fatalf("record %d %q is not a complete line of %q", k, rec, data)
			}
			i++
		}

		rec := testRec{N: len(recs)}
		enc, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		want := append(recs, enc)
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, got, err := Open(path, hdr, nil)
		if err != nil {
			t.Fatalf("reopen after append to %q: %v", data, err)
		}
		j2.Close()
		if len(got) != len(want) {
			t.Fatalf("reopen after append to %q: %d records, want %d", data, len(got), len(want))
		}
		for k := range want {
			if !bytes.Equal(got[k], want[k]) {
				t.Fatalf("reopen after append to %q: record %d is %q, want %q", data, k, got[k], want[k])
			}
		}
	})
}
