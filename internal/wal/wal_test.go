package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func frames(t *testing.T, payloads ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, p := range payloads {
		f, err := Frame([]byte(p))
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(f)
	}
	return buf.Bytes()
}

func readAll(t *testing.T, log []byte) ([]string, []int64, int64, bool) {
	t.Helper()
	var got []string
	var offs []int64
	valid, torn, err := Read(bytes.NewReader(log), func(off int64, p []byte) error {
		got = append(got, string(p))
		offs = append(offs, off)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, offs, valid, torn
}

// TestFrameLayout pins the on-disk framing byte for byte: existing job
// WALs and lease logs must stay readable.
func TestFrameLayout(t *testing.T) {
	f, err := Frame([]byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{2, 0, 0, 0, 0xaa, 0xd0, 0x7b, 0x29, '{', '}'}
	if !bytes.Equal(f, want) {
		t.Fatalf("frame = % x, want % x", f, want)
	}
}

func TestReadRoundTripAndOffsets(t *testing.T) {
	log := frames(t, "a", "", "ccc")
	got, offs, valid, torn := readAll(t, log)
	if !reflect.DeepEqual(got, []string{"a", "", "ccc"}) || !reflect.DeepEqual(offs, []int64{0, 9, 17}) {
		t.Fatalf("read %q at %v", got, offs)
	}
	if valid != int64(len(log)) || torn {
		t.Fatalf("valid %d of %d, torn %v", valid, len(log), torn)
	}
}

// TestReadTornTails: every damaged tail — cut anywhere in the last frame,
// a flipped payload byte, an oversized length — stops the read at the end
// of the last intact frame.
func TestReadTornTails(t *testing.T) {
	log := frames(t, "first", "second")
	intact := int64(len(frames(t, "first")))
	for cut := int(intact) + 1; cut < len(log); cut++ {
		got, _, valid, torn := readAll(t, log[:cut])
		if !torn || valid != intact || len(got) != 1 {
			t.Fatalf("cut %d: %q valid %d torn %v", cut, got, valid, torn)
		}
	}
	flipped := append([]byte(nil), log...)
	flipped[len(flipped)-1] ^= 1
	if got, _, valid, torn := readAll(t, flipped); !torn || valid != intact || len(got) != 1 {
		t.Fatalf("flipped byte: %q valid %d torn %v", got, valid, torn)
	}
	huge := append(append([]byte(nil), log[:intact]...), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0)
	if _, _, valid, torn := readAll(t, huge); !torn || valid != intact {
		t.Fatalf("oversized frame: valid %d torn %v", valid, torn)
	}
}

func TestReadCallbackErrorAborts(t *testing.T) {
	boom := errors.New("boom")
	valid, torn, err := Read(bytes.NewReader(frames(t, "a", "b")), func(off int64, p []byte) error {
		if string(p) == "b" {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || torn || valid != 9 {
		t.Fatalf("valid %d torn %v err %v", valid, torn, err)
	}
}

func TestFrameRejectsOversizedPayload(t *testing.T) {
	if _, err := Frame(make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversized payload framed")
	}
}

// TestLogLifecycle: appended frames replay on reopen, a torn tail is
// truncated so appends continue after the intact prefix, and Reset empties
// the log.
func TestLogLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	replay := func() ([]string, bool) {
		t.Helper()
		var got []string
		l, torn, err := Open(path, func(_ int64, p []byte) error {
			got = append(got, string(p))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return got, torn
	}
	l, torn, err := Open(path, func(int64, []byte) error { return nil })
	if err != nil || torn {
		t.Fatalf("open empty: %v torn %v", err, torn)
	}
	for i, p := range []string{"one", "two"} {
		if err := l.Append([]byte(p), i == 1); err != nil {
			t.Fatal(err)
		}
	}
	if l.Size() != 2*(8+3) {
		t.Fatalf("size %d", l.Size())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x40, 0, 0, 0, 1, 2, 3, 4, 'x'})
	f.Close()
	if got, torn := replay(); !torn || !reflect.DeepEqual(got, []string{"one", "two"}) {
		t.Fatalf("torn replay: %q torn %v", got, torn)
	}
	l, torn, err = Open(path, func(int64, []byte) error { return nil })
	if err != nil || torn {
		t.Fatalf("reopen after truncation: %v torn %v", err, torn)
	}
	if err := l.Append([]byte("three"), false); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if got, torn := replay(); torn || !reflect.DeepEqual(got, []string{"one", "two", "three"}) {
		t.Fatalf("after append: %q torn %v", got, torn)
	}
	l, _, err = Open(path, func(int64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(); err != nil || l.Size() != 0 {
		t.Fatalf("reset: %v size %d", err, l.Size())
	}
	if err := l.Append(make([]byte, MaxFrame+1), false); err == nil {
		t.Fatal("oversized append accepted")
	}
	l.Close()
	if got, _ := replay(); len(got) != 0 {
		t.Fatalf("after reset: %q", got)
	}
	boom := errors.New("boom")
	if _, _, err := Open(filepath.Join(t.TempDir(), "missing", "x.wal"), nil); err == nil {
		t.Fatal("open in a missing directory succeeded")
	}
	if err := os.WriteFile(path, frames(t, "a"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, func(int64, []byte) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("replay error: %v", err)
	}
}
