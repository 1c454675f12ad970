package service

// Binary codec of the batch and mutate endpoints: binCodec, selected
// when a request carries BinaryContentType. Requests go through the
// binary decode funnels (after an optional leading trace-extension
// frame); a batch answer goes out as a frame sequence streamed in
// bounded flushes — a 1M-point window answer leaves as ~64 chunk frames
// through one pooled buffer, never materializing at once. The handlers
// in server.go drive this codec and the JSON one alike, so the two
// formats cannot drift semantically.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"tilingsched/internal/obs/trace"
	"tilingsched/internal/service/binwire"
)

const (
	// binChunkPoints is the number of answers per response chunk frame.
	binChunkPoints = 16384
	// binFlushBytes is the encode-buffer size that triggers a flush to
	// the client mid-stream.
	binFlushBytes = 32 << 10
)

// isBinaryRequest reports whether the request selected the binary wire
// protocol via its Content-Type (parameters ignored).
func isBinaryRequest(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct) == BinaryContentType
}

// wireStatus maps a decode-funnel error to its HTTP status: ErrLimit is
// 413, everything else (ErrSpec, malformed bytes) 400.
func wireStatus(err error) int {
	if errors.Is(err, ErrLimit) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// readBodyInto reads the size-capped request body into dst's backing
// array (grown as needed, reused across requests via the query-buffer
// pool) so the hot path does not allocate a fresh body buffer per
// request.
func readBodyInto(dst []byte, w http.ResponseWriter, r *http.Request, maxBody int64) ([]byte, error) {
	rd := http.MaxBytesReader(w, r.Body, maxBody)
	dst = dst[:0]
	if cap(dst) == 0 {
		dst = make([]byte, 0, 4096)
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := rd.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// binCodec is the binary wire format (BinaryContentType). rec joins
// the trace context a request carries in a leading trace-extension
// frame.
type binCodec struct {
	lim Limits
	rec *trace.Recorder
}

// join strips an optional leading trace-extension frame from a request
// body, joining the propagated context onto tr when the caller sampled
// and the instrument wrapper has not already started a span (a
// traceparent header outranks the in-band frame). Returns the request
// frame the decode funnels consume, aliasing body.
func (c binCodec) join(body []byte, ep int, tr *reqTrace) []byte {
	ctx, rest := DecodeTraceExt(body)
	if ctx.Valid() && ctx.Sampled && tr.span == nil {
		tr.span = c.rec.Join(epNames[ep], ctx.TraceID, ctx.Parent)
	}
	return rest
}

func (c binCodec) decodeBatch(body []byte, may bool, tr *reqTrace, sc *BinScratch) (BinBatch, error) {
	ep := epSlots
	if may {
		ep = epMay
	}
	req, err := DecodeBinaryBatch(c.join(body, ep, tr), c.lim, sc)
	if err == nil && (req.Kind == binwire.FrameBatchMay) != may {
		err = fmt.Errorf("frame type %#x does not match this endpoint", req.Kind)
	}
	return req, err
}

func (c binCodec) decodeMutate(body []byte, tr *reqTrace) (BinMutate, error) {
	return DecodeBinaryMutate(c.join(body, epMutate, tr), c.lim)
}

// writeErr answers a failed binary request: an Error frame (status +
// message) terminated by an End frame.
func (binCodec) writeErr(w http.ResponseWriter, status int, msg string) {
	e := binwire.Get()
	defer binwire.Put(e)
	e.BeginFrame(binwire.FrameError)
	e.Uvarint(uint64(status))
	e.String(msg)
	e.EndFrame()
	e.BeginFrame(binwire.FrameEnd)
	e.EndFrame()
	writeFrames(w, status, e)
}

func (binCodec) writeMutate(w http.ResponseWriter, status int, resp MutateResponse) {
	e := binwire.Get()
	defer binwire.Put(e)
	encodeMutateResponse(e, resp)
	writeFrames(w, status, e)
}

// writeFrames sends a complete binary reply.
func writeFrames(w http.ResponseWriter, status int, e *binwire.Buffer) {
	w.Header().Set("Content-Type", BinaryContentType)
	w.WriteHeader(status)
	_, _ = w.Write(e.Bytes())
}

func (binCodec) batchHead(st *stream, m int, t int64, total int) {
	st.e = binwire.Get()
	if st.may {
		st.e.BeginFrame(binwire.FrameMayHead)
		st.e.Uvarint(uint64(m))
		st.e.Varint(t)
	} else {
		st.e.BeginFrame(binwire.FrameSlotsHead)
		st.e.Uvarint(uint64(m))
	}
	st.e.Uvarint(uint64(total))
	st.e.EndFrame()
}

// slotsChunk appends one slots chunk frame.
func (binCodec) slotsChunk(st *stream, slots []int32) bool {
	st.e.BeginFrame(binwire.FrameSlotsChunk)
	st.e.Uvarint(uint64(len(slots)))
	for _, v := range slots {
		st.e.Uvarint(uint64(v))
	}
	st.e.EndFrame()
	return st.flush(false)
}

// mayChunk appends one bit-packed may chunk frame (LSB-first, eight
// flags per byte).
func (binCodec) mayChunk(st *stream, flags []bool) bool {
	st.e.BeginFrame(binwire.FrameMayChunk)
	st.e.Uvarint(uint64(len(flags)))
	var b byte
	for i, f := range flags {
		if f {
			b |= 1 << (i % 8)
		}
		if i%8 == 7 {
			st.e.Byte(b)
			b = 0
		}
	}
	if len(flags)%8 != 0 {
		st.e.Byte(b)
	}
	st.e.EndFrame()
	return st.flush(false)
}

// batchEnd emits the terminating End frame and flushes everything.
func (binCodec) batchEnd(st *stream) {
	st.e.BeginFrame(binwire.FrameEnd)
	st.e.EndFrame()
	st.flush(true)
}

// flush writes the framed bytes out if forced or past the flush
// threshold, returning false once the client is gone.
func (st *stream) flush(force bool) bool {
	if st.err != nil {
		return false
	}
	if !force && st.e.Len() < binFlushBytes {
		return true
	}
	if st.e.Len() == 0 {
		return true
	}
	if !st.wrote {
		st.w.Header().Set("Content-Type", BinaryContentType)
		st.wrote = true
	}
	_, st.err = st.w.Write(st.e.Bytes())
	st.e.Reset()
	return st.err == nil
}
