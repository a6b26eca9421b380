package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// POST /v1/stream is the binary ingest path: one long-lived request whose
// chunked body is a stream of length-prefixed, CRC-framed update batches
// in the WAL's record encoding (store.AppendFrame / store.FrameScanner).
// Each decoded frame feeds Engine.IngestBatch directly — no JSON, no
// per-batch request round-trip, no per-frame allocations (the scanner and
// the engine's batch pool both reuse scratch). Backpressure is the
// transport's: the server reads a frame only after ingesting the previous
// one, so a sender can never run ahead of the engine by more than the
// socket and bufio windows.
//
// The stream ends when the client closes the request body (clean EOF on a
// frame boundary) or when the server starts draining; the response then
// reports what was applied:
//
//	{"frames": N, "updates": M, "draining": bool}
//
// A torn frame, checksum mismatch or invalid update aborts the stream
// with a 400 whose message counts the frames already applied — applied
// frames stay applied (the stream is not transactional, exactly like
// sequential /v1/ingest batches). A rate-limited frame aborts the same
// way with a 429 carrying Retry-After plus applied_frames /
// applied_updates in the envelope, so a client resumes from exact
// progress instead of guessing.
//
// A request may carry an Idempotency-Key header: frames the server
// already applied under that key (same position, same content digest)
// are skipped — not re-applied, not rate-charged, not re-counted — so a
// coordinator retrying a routed batch whose response was lost keeps the
// node's counters exact (see idempotency.go).

// scanners pools frame scanners across /v1/stream requests: each holds a
// 64 KiB read buffer plus frame and batch scratch, which would otherwise
// be fresh garbage per request.
var scanners = sync.Pool{New: func() any { return store.NewFrameScanner(nil) }}

// wireStats counts streaming-ingest and subscription traffic; all fields
// are atomics shared by handlers, the broadcaster and /v1/stats.
type wireStats struct {
	streamsActive atomic.Int64
	streamFrames  atomic.Uint64
	streamUpdates atomic.Uint64
	streamDeduped atomic.Uint64

	subsActive atomic.Int64
	pushed     atomic.Uint64
	coalesced  atomic.Uint64
	dropped    atomic.Uint64
	heartbeats atomic.Uint64
	resumes    atomic.Uint64
}

// WireStats is the JSON view of the wire counters in /v1/stats.
type WireStats struct {
	// ActiveStreams gauges open /v1/stream connections.
	ActiveStreams int64 `json:"active_streams"`
	// StreamFrames and StreamUpdates count decoded-and-applied binary
	// frames and the updates they carried.
	StreamFrames  uint64 `json:"stream_frames"`
	StreamUpdates uint64 `json:"stream_updates"`
	// StreamFramesDeduped counts frames skipped because an earlier
	// request with the same Idempotency-Key already applied them.
	StreamFramesDeduped uint64 `json:"stream_frames_deduped"`
	// ActiveSubscribers gauges open /v1/subscribe connections.
	ActiveSubscribers int64 `json:"active_subscribers"`
	// PushedEvents counts estimate events delivered into subscriber
	// buffers (initial pushes included).
	PushedEvents uint64 `json:"pushed_events"`
	// CoalescedEvents counts version-change wakeups absorbed into an
	// already-pending push round by the debounce window.
	CoalescedEvents uint64 `json:"coalesced_events"`
	// DroppedEvents counts undelivered events discarded because a slow
	// consumer's buffer was full (the consumer's next event supersedes
	// them; ingest never blocks).
	DroppedEvents uint64 `json:"dropped_events"`
	// Heartbeats counts SSE keepalive comments written.
	Heartbeats uint64 `json:"heartbeats"`
	// Resumes counts subscriptions that arrived with a valid
	// Last-Event-ID header (SSE reconnects resuming from a known version).
	Resumes uint64 `json:"resumes"`
}

func (w *wireStats) view() WireStats {
	return WireStats{
		ActiveStreams:       w.streamsActive.Load(),
		StreamFrames:        w.streamFrames.Load(),
		StreamUpdates:       w.streamUpdates.Load(),
		StreamFramesDeduped: w.streamDeduped.Load(),
		ActiveSubscribers:   w.subsActive.Load(),
		PushedEvents:        w.pushed.Load(),
		CoalescedEvents:     w.coalesced.Load(),
		DroppedEvents:       w.dropped.Load(),
		Heartbeats:          w.heartbeats.Load(),
		Resumes:             w.resumes.Load(),
	}
}

func (s *Server) handleStream(r *http.Request) (int, any, error) {
	if err := checkParams(r.URL.Query()); err != nil {
		return http.StatusBadRequest, nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" && ct != store.StreamContentType {
		return http.StatusUnsupportedMediaType, nil,
			fmt.Errorf("content type %q (want %s)", ct, store.StreamContentType)
	}
	if s.gate != nil {
		if !s.gate.acquire() {
			return http.StatusTooManyRequests, nil,
				s.gate.limited(time.Second, 0, 0,
					fmt.Sprintf("ingest in-flight budget (%d) exhausted", s.gate.maxInflight))
		}
		defer s.gate.release()
	}
	// An Idempotency-Key makes replayed frames (same position, same
	// digest) no-ops; the coordinator's routed retries rely on this.
	var rec *idemRecord
	if key := r.Header.Get("Idempotency-Key"); key != "" {
		rec = s.idem.get(key)
	}
	client := clientKey(r)

	s.wire.streamsActive.Add(1)
	defer s.wire.streamsActive.Add(-1)

	sc := scanners.Get().(*store.FrameScanner)
	sc.Reset(r.Body)
	defer func() {
		sc.Reset(nil)
		scanners.Put(sc)
	}()
	frames, updates := 0, 0
	skippedFrames, skippedUpdates := 0, 0
	seq := 0 // frame position in the stream, skipped frames included
	draining := false
	for {
		// Check the drain gate between frames (never mid-frame): on
		// shutdown the connection finishes its current batch and answers
		// with what it applied, instead of being cut mid-record.
		select {
		case <-s.drainCh:
			draining = true
		default:
		}
		if draining {
			break
		}
		batch, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return http.StatusBadRequest, nil,
				fmt.Errorf("frame %d: %w (%d updates from %d frames already applied)", seq, err, updates, frames)
		}
		var digest uint64
		if rec != nil {
			digest = frameDigest(batch)
			if rec.seen(seq, digest) {
				// Already applied by an earlier attempt under this key:
				// skip — no engine apply, no counters, no token charge.
				seq++
				skippedFrames++
				skippedUpdates += len(batch)
				s.wire.streamDeduped.Add(1)
				continue
			}
		}
		if s.gate != nil {
			if ok, retryAfter := s.gate.admit(client, len(batch)); !ok {
				return http.StatusTooManyRequests, nil,
					s.gate.limited(retryAfter, frames, updates,
						fmt.Sprintf("frame %d: rate limit: %d updates exceed the client budget (%d updates from %d frames already applied)",
							seq, len(batch), updates, frames))
			}
		}
		if err := s.ingest.IngestBatch(r.Context(), batch); err != nil {
			return ingestStatus(err), nil,
				fmt.Errorf("frame %d: %w (%d updates from %d frames already applied)", seq, err, updates, frames)
		}
		if rec != nil {
			rec.applied(seq, digest)
		}
		seq++
		frames++
		updates += len(batch)
		s.wire.streamFrames.Add(1)
		s.wire.streamUpdates.Add(uint64(len(batch)))
	}
	return http.StatusOK, map[string]any{
		"frames":          frames,
		"updates":         updates,
		"skipped_frames":  skippedFrames,
		"skipped_updates": skippedUpdates,
		"draining":        draining,
	}, nil
}

// Drain moves the server into connection-draining mode: open /v1/stream
// requests finish their current frame and respond, open /v1/subscribe
// connections receive a final "drain" event and close, and new frames or
// subscriptions are refused. Idempotent; monestd calls it before
// http.Server.Shutdown so long-lived connections do not hold shutdown
// open until the timeout kills them.
func (s *Server) Drain() {
	s.drainOnce.Do(func() {
		close(s.drainCh)
		// Cancel the broadcaster's drain context too, so a push round's
		// in-flight cluster scatter-gather aborts instead of riding out
		// its full per-node timeout and retry budget.
		s.drainCancel()
	})
}

// draining reports whether Drain was called.
func (s *Server) draining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

var errDraining = errors.New("server is draining (shutting down)")
