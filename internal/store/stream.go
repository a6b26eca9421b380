package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/engine"
)

// This file is the streaming wire protocol: the same length-prefixed,
// CRC-framed update batches the WAL journals (codec.go), carried over a
// long-lived connection instead of a segment file. Sharing the record
// encoding means one codec to test, and a captured stream body is literally
// a replayable WAL tail.
//
// Stream layout:
//
//	[8]  magic "MONESTB1"
//	then frames, each exactly a WAL record:
//	  [4] payload length N
//	  [4] CRC32(payload)
//	  [N] payload = [4] count, then count × { [4] instance, [8] key,
//	      [8] weight bits }
//
// The stream has no trailer: a clean EOF on a frame boundary ends it. A
// torn frame (EOF mid-record) or a CRC mismatch is an error — unlike WAL
// recovery, which tolerates a torn tail, a live connection that breaks
// mid-frame must surface the break to the sender.
const (
	// StreamMagic opens every binary ingest stream; it differs from the WAL
	// segment magic so a stream capture and a WAL segment cannot be
	// confused, while the per-record bytes after it are identical.
	StreamMagic = "MONESTB1"

	// MaxStreamFrameBytes bounds one frame's declared payload (1 MiB,
	// ~52k updates — far above any sane batch). A larger declared length is
	// a protocol error, not a buffer worth allocating.
	MaxStreamFrameBytes = 1 << 20

	// StreamContentType is the media type of a binary ingest stream.
	StreamContentType = "application/x-monest-stream"
)

// UpdateBytes is the encoded size of one update on the wire and in the WAL.
const UpdateBytes = updateBytes

// AppendStreamHeader appends the stream magic. Writers send it once,
// before the first frame.
func AppendStreamHeader(dst []byte) []byte {
	return append(dst, StreamMagic...)
}

// AppendFrame appends one framed update batch (length, CRC, payload) —
// the exact record encoding the WAL appends to its segments.
func AppendFrame(dst []byte, batch []engine.Update) []byte {
	head := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = appendUpdates(dst, batch)
	payload := dst[head+8:]
	binary.LittleEndian.PutUint32(dst[head:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[head+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// FrameScanner reads a binary ingest stream incrementally with reusable
// scratch: the frame buffer and the decoded batch slice are owned by the
// scanner and overwritten by the next call, so a steady-state connection
// allocates nothing per frame. Not safe for concurrent use.
type FrameScanner struct {
	r *bufio.Reader
	// head is the persistent 8-byte header scratch: a stack array would
	// escape through the io.ReadFull interface call, costing an allocation
	// per frame.
	head    [8]byte
	buf     []byte
	batch   []engine.Update
	started bool
	frames  uint64
}

// NewFrameScanner wraps a stream body. The magic header is consumed and
// verified on the first Next call.
func NewFrameScanner(r io.Reader) *FrameScanner {
	return &FrameScanner{r: bufio.NewReaderSize(r, 64<<10)}
}

// Reset points the scanner at a new stream and keeps its buffers, so a
// server can pool scanners instead of allocating a 64 KiB read buffer
// per request. Reset(nil) drops the reference to the old stream.
func (s *FrameScanner) Reset(r io.Reader) {
	s.r.Reset(r)
	s.started = false
	s.frames = 0
}

// Frames reports how many frames have been decoded so far.
func (s *FrameScanner) Frames() uint64 { return s.frames }

// Next returns the next decoded update batch. It returns io.EOF exactly
// when the stream ends cleanly on a frame boundary; any mid-frame EOF,
// CRC mismatch or malformed payload is a non-EOF error. The returned
// slice is valid only until the next call.
func (s *FrameScanner) Next() ([]engine.Update, error) {
	if !s.started {
		if _, err := io.ReadFull(s.r, s.head[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return nil, fmt.Errorf("store: stream ended before the %q header", StreamMagic)
			}
			return nil, fmt.Errorf("store: reading stream header: %w", err)
		}
		if string(s.head[:]) != StreamMagic {
			return nil, fmt.Errorf("store: bad stream magic %q (want %q)", s.head, StreamMagic)
		}
		s.started = true
	}
	if _, err := io.ReadFull(s.r, s.head[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF // clean end: EOF exactly on a frame boundary
		}
		return nil, fmt.Errorf("store: torn frame header: %w", err)
	}
	plen := binary.LittleEndian.Uint32(s.head[:4])
	crc := binary.LittleEndian.Uint32(s.head[4:])
	if plen < 4 || plen > MaxStreamFrameBytes {
		return nil, fmt.Errorf("store: frame declares %d payload bytes (want 4..%d)", plen, MaxStreamFrameBytes)
	}
	if cap(s.buf) < int(plen) {
		s.buf = make([]byte, plen)
	}
	payload := s.buf[:plen]
	if _, err := io.ReadFull(s.r, payload); err != nil {
		return nil, fmt.Errorf("store: torn frame payload (%d bytes declared): %w", plen, err)
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, errors.New("store: frame checksum mismatch")
	}
	batch, err := decodeUpdatesInto(s.batch, payload)
	if err != nil {
		return nil, err
	}
	s.batch = batch
	s.frames++
	return batch, nil
}

// decodeUpdatesInto is decodeUpdates reusing the caller's slice.
func decodeUpdatesInto(dst []engine.Update, payload []byte) ([]engine.Update, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("store: record payload %d bytes, want ≥ 4", len(payload))
	}
	n := binary.LittleEndian.Uint32(payload)
	if uint64(len(payload)) != 4+uint64(n)*updateBytes {
		return nil, fmt.Errorf("store: record declares %d updates in %d payload bytes", n, len(payload))
	}
	if cap(dst) < int(n) {
		dst = make([]engine.Update, n)
	}
	dst = dst[:n]
	decodeUpdatesIntoSlice(dst, payload[4:])
	return dst, nil
}
