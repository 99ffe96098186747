// Package jsonl is the crash contract of every append-only JSONL file the
// system keeps: the service journal, the campaign event log and the trace.
// Writers append whole lines in one write call, so a crash can only tear
// the final line. A malformed final line is therefore a torn tail, skipped
// on read and cut by Open before appending, while a malformed line with
// records after it is damage and fails with its line number.
package jsonl

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
)

// Scan calls decode on every non-blank line of r, trimmed of surrounding
// space; decode must not retain the slice. Lines are streamed, with no
// length cap. A decode error on the final non-blank line is a torn tail,
// skipped and counted (torn is 0 or 1); one followed by more records fails
// the scan.
func Scan(r io.Reader, decode func(line []byte) error) (torn int, err error) {
	ext, err := scan(r, decode)
	return ext.torn, err
}

// extent is the layout a scan found.
type extent struct {
	good int64 // offset just past the last intact line
	open bool  // the last intact line lacks its newline
	size int64 // bytes read
	torn int   // 1 when the final non-blank line failed to decode
}

func scan(r io.Reader, decode func([]byte) error) (extent, error) {
	var (
		ext  extent
		br   = bufio.NewReader(r)
		long []byte // reassembles lines longer than br's buffer
		held error  // a decode error, fatal only if another record follows
	)
	for line := 1; ; line++ {
		b, rerr := br.ReadSlice('\n')
		if rerr == bufio.ErrBufferFull {
			long = append(long[:0], b...)
			for rerr == bufio.ErrBufferFull {
				b, rerr = br.ReadSlice('\n')
				long = append(long, b...)
			}
			b = long
		}
		if rerr != nil && rerr != io.EOF {
			return extent{}, rerr
		}
		ext.size += int64(len(b))
		if rec := bytes.TrimSpace(b); len(rec) > 0 {
			if held != nil {
				return extent{}, held
			}
			if err := decode(rec); err != nil {
				held = fmt.Errorf("line %d: %w", line, err)
			} else {
				ext.good, ext.open = ext.size, b[len(b)-1] != '\n'
			}
		}
		if rerr == io.EOF {
			if held != nil {
				ext.torn = 1
			}
			return ext, nil
		}
	}
}

// Log is an append-only JSONL file.
type Log struct {
	f *os.File
}

// Open opens the JSONL file at path for appending, creating it if absent.
// An existing file is scanned with decode, so the caller sees every intact
// record, then cut back to its last intact line: a torn tail is dropped and
// a final record missing its newline gets one.
func Open(path string, decode func(line []byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	ext, err := scan(f, decode)
	if err == nil && ext.size > ext.good {
		err = f.Truncate(ext.good)
	}
	if err == nil && ext.open {
		_, err = f.Write([]byte{'\n'})
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &Log{f: f}, nil
}

// Write appends p, whole lines, in one write call. It makes a Log the
// io.Writer behind the trace and event-log sinks.
func (l *Log) Write(p []byte) (int, error) { return l.f.Write(p) }

// Sync commits the appended lines to stable storage; only the journal,
// which acknowledges nothing before it is durable, pays for it.
func (l *Log) Sync() error { return l.f.Sync() }

// Close closes the file.
func (l *Log) Close() error { return l.f.Close() }
