package service

// Binary codec of the push plane (DESIGN.md §13): the FrameSubscribe
// request grammar, the server→client stream frames (SubHello, Delta,
// SubBye), and binCodec's subscribe methods, through which
// handleSubscribe writes a binary stream. The request funnel enforces
// exactly the contract of DecodeSubscribeRequest (well-formed window
// within MaxWindow, ErrSpec→400 / ErrLimit→413, never panic) and is
// fuzzed alongside it by FuzzDecodeSubscribeRequest. The client side
// is an incremental frame reader over the response body whose
// allocation is bounded by the bytes actually received — a malicious
// length prefix or change count cannot amplify allocation
// (FuzzSubscribeStream pins this).

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"tilingsched/internal/lattice"
	"tilingsched/internal/service/binwire"
)

// Subscribe request flag bits.
const binSubHasEpoch byte = 1 << 0

// maxSubFrameLen caps a subscription stream frame's declared length on
// the client side: large enough for a full-resync delta of the largest
// admissible window, small enough that a corrupt length prefix fails
// fast instead of looping over gigabytes.
const maxSubFrameLen = 64 << 20

// subReadChunk is the client reader's growth step: frame payloads are
// read (and their buffer grown) in chunks of at most this many bytes,
// so allocation tracks bytes received, never the declared length.
const subReadChunk = 64 << 10

// BinSubscribe is a decoded binary subscribe request: the session
// address plus the optional resume epoch (SubscribeRequest semantics).
type BinSubscribe struct {
	// Plan names the session's plan (spec or signature reference).
	Plan BinPlanRef
	// Window is the session window, validated against MaxWindow.
	Window lattice.Window
	// Epoch is the client's last applied epoch, meaningful iff HasEpoch.
	Epoch uint64
	// HasEpoch reports whether the request pinned a resume epoch.
	HasEpoch bool
}

// DecodeBinarySubscribe parses one binary subscribe request frame under
// the never-panic funnel contract: a well-formed window within
// lim.MaxWindow and no trailing bytes. Violations wrap ErrSpec (400) or
// ErrLimit (413).
func DecodeBinarySubscribe(data []byte, lim Limits) (BinSubscribe, error) {
	lim = lim.withDefaults()
	stream := binwire.NewReader(data)
	typ, r := stream.Frame()
	stream.Done()
	if stream.Err() != nil {
		return BinSubscribe{}, failSpec(&stream)
	}
	if typ != binwire.FrameSubscribe {
		return BinSubscribe{}, fmt.Errorf("%w: frame type %#x is not a subscribe request", ErrSpec, typ)
	}
	var req BinSubscribe
	var err error
	if req.Plan, err = decodePlanRef(&r); err != nil {
		return BinSubscribe{}, err
	}
	if req.Window, err = decodeWindow(&r, lim.MaxWindow, nil); err != nil {
		return BinSubscribe{}, err
	}
	flags := r.Byte()
	if flags&binSubHasEpoch != 0 {
		req.Epoch = r.Uvarint()
		req.HasEpoch = true
	}
	r.Done()
	if r.Err() != nil {
		return BinSubscribe{}, failSpec(&r)
	}
	return req, nil
}

// EncodeSubscribeBinary appends the binary frame of a subscribe request
// to e. A non-empty sig encodes a plan-by-signature reference instead
// of req.Plan.
func EncodeSubscribeBinary(e *binwire.Buffer, req SubscribeRequest, sig string) {
	e.BeginFrame(binwire.FrameSubscribe)
	encodePlanRef(e, req.Plan, sig)
	encodeWindowSpec(e, req.Window)
	var flags byte
	if req.Epoch != nil {
		flags |= binSubHasEpoch
	}
	e.Byte(flags)
	if req.Epoch != nil {
		e.Uvarint(*req.Epoch)
	}
	e.EndFrame()
}

// encodeSubHello appends the stream-opening hello frame.
func encodeSubHello(e *binwire.Buffer, h SubscribeHello) {
	e.BeginFrame(binwire.FrameSubHello)
	e.String(h.Signature)
	e.Uvarint(h.Epoch)
	e.Uvarint(uint64(h.M))
	e.Uvarint(uint64(h.Alive))
	e.EndFrame()
}

// Delta frame flag bits.
const binDeltaFull byte = 1 << 0

// encodeDeltaFrame appends one delta frame: epoch, m, alive, flags,
// then the change set as (count, dim, per-change coordinates + slot).
func encodeDeltaFrame(e *binwire.Buffer, d *Delta) {
	e.BeginFrame(binwire.FrameDelta)
	e.Uvarint(d.Epoch)
	e.Uvarint(uint64(d.M))
	e.Uvarint(uint64(d.Alive))
	var flags byte
	if d.Full {
		flags |= binDeltaFull
	}
	e.Byte(flags)
	e.Uvarint(uint64(len(d.Changed)))
	dim := 0
	if len(d.Changed) > 0 {
		dim = len(d.Changed[0].P)
	}
	e.Uvarint(uint64(dim))
	for _, ch := range d.Changed {
		for a := 0; a < dim; a++ {
			v := 0
			if a < len(ch.P) {
				v = ch.P[a]
			}
			e.Varint(int64(v))
		}
		e.Varint(int64(ch.Slot))
	}
	e.EndFrame()
}

// encodeSubBye appends the terminal frame: the stream is over and the
// client must reconnect and resync.
func encodeSubBye(e *binwire.Buffer, epoch uint64, reason string) {
	e.BeginFrame(binwire.FrameSubBye)
	e.Uvarint(epoch)
	e.String(reason)
	e.EndFrame()
}

// decodeSubHello parses a hello frame payload.
func decodeSubHello(r *binwire.Reader) (SubscribeHello, error) {
	var h SubscribeHello
	h.Signature = r.String(maxWireSig)
	h.Epoch = r.Uvarint()
	h.M = r.Count(math.MaxInt32, "m")
	h.Alive = r.Count(math.MaxInt32, "alive")
	r.Done()
	if r.Err() != nil {
		return SubscribeHello{}, failSpec(r)
	}
	return h, nil
}

// decodeDeltaFrame parses one delta frame payload into the JSON-shaped
// stream element. The change-set pre-allocation is bounded by what the
// payload could actually hold (one varint byte per coordinate and
// slot), so a malicious count cannot amplify allocation.
func decodeDeltaFrame(r *binwire.Reader) (SubscribeDelta, error) {
	var d SubscribeDelta
	d.Epoch = r.Uvarint()
	d.M = r.Count(math.MaxInt32, "m")
	d.Alive = r.Count(math.MaxInt32, "alive")
	flags := r.Byte()
	d.Full = flags&binDeltaFull != 0
	count := r.Count(math.MaxInt32, "change count")
	dim := r.Count(maxTileDim, "change dimension")
	if r.Err() != nil {
		return SubscribeDelta{}, failSpec(r)
	}
	capHint := count
	if most := r.Remaining() / (1 + dim); capHint > most {
		capHint = most
	}
	d.Changed = make([]ChangeSpec, 0, capHint)
	for i := 0; i < count && r.Err() == nil; i++ {
		p := make([]int, dim)
		for a := 0; a < dim; a++ {
			p[a] = int(r.Varint())
		}
		d.Changed = append(d.Changed, ChangeSpec{P: p, Slot: int(r.Varint())})
	}
	r.Done()
	if r.Err() != nil {
		return SubscribeDelta{}, failSpec(r)
	}
	return d, nil
}

func (c binCodec) decodeSubscribe(body []byte, tr *reqTrace) (BinSubscribe, error) {
	return DecodeBinarySubscribe(c.join(body, epSubscribe, tr), c.lim)
}

func (binCodec) subHello(st *stream, h SubscribeHello) bool {
	st.w.Header().Set("Content-Type", BinaryContentType)
	e := binwire.Get()
	defer binwire.Put(e)
	encodeSubHello(e, h)
	return st.send(e.Bytes())
}

func (binCodec) subDelta(st *stream, d *Delta) bool { return st.send(d.binFrame()) }

// subBye ends the stream with a SubBye frame and an End frame.
func (binCodec) subBye(st *stream, epoch uint64, reason string) {
	e := binwire.Get()
	defer binwire.Put(e)
	encodeSubBye(e, epoch, reason)
	e.BeginFrame(binwire.FrameEnd)
	e.EndFrame()
	st.send(e.Bytes())
}

// binFrame returns d's binary stream element (the encodeDeltaFrame
// bytes), encoded on the first call into a transient pooled buffer and
// shared by every later caller. Safe for concurrent use.
func (d *Delta) binFrame() []byte {
	d.binOnce.Do(func() {
		e := binwire.Get()
		encodeDeltaFrame(e, d)
		d.binEl = bytes.Clone(e.Bytes())
		binwire.Put(e)
	})
	return d.binEl
}

// --- Client-side stream reader --------------------------------------------

// SubscribeStream incrementally decodes a subscription response stream
// (client side) in either codec: the binary frame sequence under
// BinaryContentType, newline-delimited JSON otherwise. It reads frames
// as they arrive — Next blocks until the server pushes the next delta —
// and bounds its buffering by bytes actually received. Used by the
// subscriber oracle, the restart tests, and cmd/bench's push modes; a
// single-goroutine value.
type SubscribeStream struct {
	bin   bool
	br    *bufio.Reader
	dec   *json.Decoder
	hello SubscribeHello
	buf   []byte
}

// ErrStreamEnded reports an orderly server-side stream termination: the
// server sent its terminal frame and the subscriber must reconnect and
// resync. The accompanying SubscribeDelta carries the reason in Bye.
var ErrStreamEnded = errors.New("service: subscription ended by server")

// OpenSubscribeStream wraps a subscription response body and reads the
// opening hello. contentType selects the codec (BinaryContentType for
// frames, anything else for ndjson). A binary Error frame in place of
// the hello decodes into *WireError.
func OpenSubscribeStream(r io.Reader, contentType string) (*SubscribeStream, error) {
	st := &SubscribeStream{bin: contentType == BinaryContentType}
	if st.bin {
		st.br = bufio.NewReader(r)
		typ, payload, err := st.readFrame()
		if err != nil {
			return nil, err
		}
		pr := binwire.NewReader(payload)
		switch typ {
		case binwire.FrameError:
			return nil, decodeErrorFrame(&pr)
		case binwire.FrameSubHello:
			h, err := decodeSubHello(&pr)
			if err != nil {
				return nil, err
			}
			st.hello = h
			return st, nil
		}
		return nil, fmt.Errorf("%w: expected hello, got frame %#x", ErrSpec, typ)
	}
	st.dec = json.NewDecoder(r)
	if err := st.dec.Decode(&st.hello); err != nil {
		return nil, fmt.Errorf("%w: decoding hello: %v", ErrSpec, err)
	}
	return st, nil
}

// Hello returns the stream's opening element.
func (st *SubscribeStream) Hello() SubscribeHello { return st.hello }

// Next blocks for the next stream element. A delta with a non-empty Bye
// (or a binary SubBye frame) is returned alongside ErrStreamEnded; an
// abrupt connection loss surfaces the underlying read error (io.EOF,
// io.ErrUnexpectedEOF).
func (st *SubscribeStream) Next() (SubscribeDelta, error) {
	if !st.bin {
		var d SubscribeDelta
		if err := st.dec.Decode(&d); err != nil {
			return SubscribeDelta{}, err
		}
		if d.Bye != "" {
			return d, ErrStreamEnded
		}
		return d, nil
	}
	for {
		typ, payload, err := st.readFrame()
		if err != nil {
			return SubscribeDelta{}, err
		}
		pr := binwire.NewReader(payload)
		switch typ {
		case binwire.FrameDelta:
			return decodeDeltaFrame(&pr)
		case binwire.FrameSubBye:
			var d SubscribeDelta
			d.Epoch = pr.Uvarint()
			d.Bye = pr.String(maxWireErrMsg)
			pr.Done()
			if pr.Err() != nil {
				return SubscribeDelta{}, failSpec(&pr)
			}
			return d, ErrStreamEnded
		case binwire.FrameError:
			return SubscribeDelta{}, decodeErrorFrame(&pr)
		case binwire.FrameEnd:
			return SubscribeDelta{}, io.EOF
		}
		// Unknown frame type: skip (forward compatibility).
	}
}

// readFrame reads one frame header and payload from the stream. The
// payload buffer is reused across frames and grown in subReadChunk
// steps as bytes arrive, so a corrupt length prefix costs at most one
// chunk of allocation before the read fails.
func (st *SubscribeStream) readFrame() (byte, []byte, error) {
	var hdr [binwire.FrameHeaderLen]byte
	if _, err := io.ReadFull(st.br, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n < 1 || n > maxSubFrameLen {
		return 0, nil, fmt.Errorf("%w: frame length %d out of range", binwire.ErrMalformed, n)
	}
	typ := hdr[4]
	need := int(n) - 1
	st.buf = st.buf[:0]
	for need > 0 {
		chunk := min(need, subReadChunk)
		off := len(st.buf)
		if cap(st.buf) < off+chunk {
			grown := make([]byte, off, off+chunk)
			copy(grown, st.buf)
			st.buf = grown
		}
		st.buf = st.buf[:off+chunk]
		if _, err := io.ReadFull(st.br, st.buf[off:]); err != nil {
			return 0, nil, err
		}
		need -= chunk
	}
	return typ, st.buf, nil
}
