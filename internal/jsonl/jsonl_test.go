package jsonl

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var errInvalid = errors.New("invalid JSON")

// collect returns a decoder that accepts well-formed JSON lines and keeps a
// copy of each.
func collect(recs *[]string) func([]byte) error {
	return func(line []byte) error {
		if !json.Valid(line) {
			return errInvalid
		}
		*recs = append(*recs, string(line))
		return nil
	}
}

func TestScanTornTailAndCorruption(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		recs     int
		torn     int
		errLine  string // non-empty: the scan must fail naming this line
	}{
		{name: "empty"},
		{name: "clean", in: "{\"a\":1}\n{\"a\":2}\n", recs: 2},
		{name: "blank lines skipped", in: "\n{\"a\":1}\n\n  \n{\"a\":2}\r\n", recs: 2},
		{name: "unterminated final record", in: "{\"a\":1}\n{\"a\":2}", recs: 2},
		{name: "torn tail", in: "{\"a\":1}\n{\"a\":", recs: 1, torn: 1},
		{name: "torn tail then blanks", in: "{\"a\":1}\n{\"half\n\n\n", recs: 1, torn: 1},
		{name: "only a torn line", in: "{\"a", torn: 1},
		{name: "mid-stream corruption", in: "{\"a\":1}\nNOT JSON\n{\"a\":3}\n", errLine: "line 2"},
		{name: "corruption after blanks", in: "\n\ngarbage\n{\"a\":1}\n", errLine: "line 3"},
	} {
		var recs []string
		torn, err := Scan(strings.NewReader(tc.in), collect(&recs))
		if tc.errLine != "" {
			if err == nil || !strings.Contains(err.Error(), tc.errLine) || !errors.Is(err, errInvalid) {
				t.Errorf("%s: err = %v, want the decode error at %s", tc.name, err, tc.errLine)
			}
			continue
		}
		if err != nil || torn != tc.torn || len(recs) != tc.recs {
			t.Errorf("%s: %d records, torn=%d, err=%v; want %d, torn=%d",
				tc.name, len(recs), torn, err, tc.recs, tc.torn)
		}
	}
}

// TestScanHasNoLineCap: a campaign-service submission at the default
// admission limit is a journal line over 1 MiB; the reader must take it
// whole.
func TestScanHasNoLineCap(t *testing.T) {
	big := `{"pad":"` + strings.Repeat("x", 3<<20) + `"}`
	in := "{\"a\":1}\n" + big + "\n{\"a\":2}\n"
	var recs []string
	torn, err := Scan(strings.NewReader(in), collect(&recs))
	if err != nil || torn != 0 || len(recs) != 3 || recs[1] != big {
		t.Fatalf("long line: %d records, torn=%d, err=%v", len(recs), torn, err)
	}
}

func writeLog(t *testing.T, data string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenCutsTornTailBeforeAppending(t *testing.T) {
	for _, tc := range []struct{ name, in, want string }{
		{"absent", "", "{\"n\":9}\n"},
		{"clean", "{\"a\":1}\n", "{\"a\":1}\n{\"n\":9}\n"},
		{"torn tail", "{\"a\":1}\n{\"a\":", "{\"a\":1}\n{\"n\":9}\n"},
		{"torn tail then blanks", "{\"a\":1}\n{\"half\n\n", "{\"a\":1}\n{\"n\":9}\n"},
		{"record missing its newline", "{\"a\":1}", "{\"a\":1}\n{\"n\":9}\n"},
		{"only a torn line", "{\"a", "{\"n\":9}\n"},
	} {
		path := writeLog(t, tc.in)
		if tc.in == "" {
			os.Remove(path)
		}
		var recs []string
		l, err := Open(path, collect(&recs))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := l.Write([]byte("{\"n\":9}\n")); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		l.Close()
		if got, _ := os.ReadFile(path); string(got) != tc.want {
			t.Errorf("%s: file = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestOpenRefusesCorruption(t *testing.T) {
	path := writeLog(t, "{\"a\":1}\nNOT JSON\n{\"a\":3}\n")
	var recs []string
	if _, err := Open(path, collect(&recs)); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("Open over mid-stream corruption = %v, want a line-2 error", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "{\"a\":1}\nNOT JSON\n{\"a\":3}\n" {
		t.Fatalf("a refused open modified the file: %q", got)
	}
}

// FuzzScan checks the reader against arbitrary bytes: Scan never panics,
// and whenever Open accepts the bytes as a file, an appended record reads
// back after the intact records, unchanged, with no torn line.
func FuzzScan(f *testing.F) {
	for _, seed := range []string{
		// Torn tails, as a crash mid-append leaves them.
		"{\"op\":\"submit\",\"id\":\"c000000\"}\n{\"op\":\"submit\",\"id\":\"c0000",
		"{\"seq\":1,\"t_ns\":1,\"type\":\"campaign_start\",\"cell\":-1}\n{\"seq\":2,\"t_ns\":2,\"type\":\"cell_done\",\"ce",
		"{\"seq\":1,\"t_ns\":1,\"type\":\"cell_leased\",\"cell\":0}\n{\"seq\":2,\"bro",
		"{\"type\":\"sample\",\"comp\":\"L1D\"}\n{\"type\":\"sample\",\"comp\":\"L1D\\",
		"{\"type\":\"sample\",\"comp\":\"L1D\"}\n\x00\x1f\x7f garbage",
		"{\"type\":\"sample\",\"comp\":\"L1D\"}\n{\"half\n\n\n",
		// Mid-stream corruption.
		"{\"op\":\"submit\",\"id\":\"c000000\"}\nNOT JSON\n{\"op\":\"state\",\"id\":\"c000000\",\"state\":\"running\"}\n",
		"{\"seq\":1,\"t_ns\":1,\"type\":\"cell_leased\",\"cell\":0}\ngarbage\n{\"seq\":3,\"t_ns\":3,\"type\":\"cell_done\",\"cell\":0}\n",
		"{\"comp\":\"L1D\"}\nnot json\n{\"comp\":\"L1I\"}\n",
		// Edges: nothing, blanks, a record without its newline.
		"", "\n\n", " \r\n\t", "{\"a\":1}",
	} {
		f.Add([]byte(seed))
	}
	const appended = `{"appended":true}`
	f.Fuzz(func(t *testing.T, data []byte) {
		var scanned []string
		Scan(bytes.NewReader(data), collect(&scanned))

		path := filepath.Join(t.TempDir(), "log.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var kept []string
		l, err := Open(path, collect(&kept))
		if err != nil {
			return
		}
		_, err = l.Write([]byte(appended + "\n"))
		l.Close()
		if err != nil {
			t.Fatal(err)
		}
		reopened, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer reopened.Close()
		var again []string
		torn, err := Scan(reopened, collect(&again))
		if err != nil || torn != 0 {
			t.Fatalf("re-scan after append: torn=%d err=%v", torn, err)
		}
		if !slices.Equal(kept, scanned) {
			t.Fatalf("Open decoded %q, Scan %q", kept, scanned)
		}
		if want := append(kept, appended); !slices.Equal(again, want) {
			t.Fatalf("re-scan = %q, want %q", again, want)
		}
	})
}
