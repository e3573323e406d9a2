// Package wal is the write-ahead log shared by the durable job store
// (internal/jobs) and the cluster router's lease log (internal/cluster). A
// log is a sequence of self-delimiting frames:
//
//	[4-byte little-endian payload length][4-byte CRC-32C of payload][payload]
//
// Reading stops at the first frame that is short, oversized, or fails its
// checksum — a torn tail from a crash mid-write is discarded, never
// misparsed — and Open truncates the log there before appending again.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// MaxFrame bounds one payload, so a corrupt length field cannot demand an
// outsized allocation.
const MaxFrame = 16 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Frame renders payload as one frame in a single byte slice, so appending
// it is one write — a killed process never leaves a half-written header
// with a valid-looking payload behind it.
func Frame(payload []byte) ([]byte, error) {
	if len(payload) > MaxFrame {
		return nil, fmt.Errorf("wal: entry of %d bytes exceeds frame limit %d", len(payload), MaxFrame)
	}
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	copy(buf[8:], payload)
	return buf, nil
}

// Read decodes frames from r until EOF or the first damaged frame, calling
// fn with each payload and its frame's byte offset. It returns the length
// of the valid prefix and whether a damaged tail was dropped. An error from
// fn aborts the read: a frame that passes its checksum but cannot be
// applied is not a torn write, and silently dropping the rest of the log
// would hide it.
func Read(r io.Reader, fn func(offset int64, payload []byte) error) (valid int64, torn bool, err error) {
	var header [8]byte
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			// Clean EOF ends the log; a partial header is a torn tail.
			return valid, err != io.EOF, nil
		}
		n := binary.LittleEndian.Uint32(header[0:4])
		if n > MaxFrame {
			return valid, true, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return valid, true, nil
		}
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(header[4:8]) {
			return valid, true, nil
		}
		if err := fn(valid, payload); err != nil {
			return valid, false, err
		}
		valid += int64(8 + n)
	}
}

// Log is an open log file, positioned for appending after its valid
// prefix. It is not safe for concurrent use; its owner serializes access.
type Log struct {
	f    *os.File
	size int64
}

// Open opens (creating it if needed) the log at path and replays it: fn
// receives every intact frame (see Read), a torn tail is truncated away,
// and torn reports whether one was.
func Open(path string, fn func(offset int64, payload []byte) error) (l *Log, torn bool, err error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, false, fmt.Errorf("wal: open: %w", err)
	}
	valid, torn, err := Read(f, fn)
	if err == nil && torn {
		if err = f.Truncate(valid); err != nil {
			err = fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	if err == nil {
		_, err = f.Seek(valid, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, false, err
	}
	return &Log{f: f, size: valid}, torn, nil
}

// Append writes payload as one frame and, when sync is set, fsyncs the
// log — which also makes every earlier unsynced frame durable.
func (l *Log) Append(payload []byte, sync bool) error {
	frame, err := Frame(payload)
	if err != nil {
		return err
	}
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(frame))
	if sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
	}
	return nil
}

// Size is the log's length in bytes.
func (l *Log) Size() int64 { return l.size }

// Reset durably empties the log, once its contents are captured elsewhere
// (a compaction snapshot).
func (l *Log) Reset() error {
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: rewind: %w", err)
	}
	l.size = 0
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
