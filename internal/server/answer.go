package server

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"themecomm/internal/federation"
	"themecomm/internal/itemset"
	"themecomm/internal/truss"
)

// This file is the answer encoder. Every route that renders communities —
// /query (materialized, top-k, paged JSON and NDJSON streams), /batch,
// /vertex and /queryall — writes them straight to bytes through
// appendCommunity, naming items and vertices from the network's pre-quoted
// name tables (federation.QuotedNames). No answer builds a response struct
// or goes through reflection, yet the bytes are exactly those encoding/json
// writes for QueryResponse and its family, which stay as the decode types
// of the clients (FuzzAnswerEncoding and TestGoldenBodies hold the encoder
// to that). The other payloads — stats, explain, patterns, errors, health —
// keep writeJSON.

// answerChunk is the body size at which an answer goes to the
// ResponseWriter, so the memory an answer in flight holds stays bounded. A
// body of at most 2 KB still goes out in one write, which net/http frames
// with a Content-Length exactly as it frames writeJSON's bodies; larger
// bodies were chunked before and still are.
const answerChunk = 32 << 10

// maxPooledAnswer bounds the buffers answerWriters keeps: a buffer one huge
// community grew is left to the garbage collector.
const maxPooledAnswer = 4 * answerChunk

// answerWriter is one answer body on its way to the client.
type answerWriter struct {
	w   http.ResponseWriter
	buf []byte
	// began is when the answer was committed.
	began time.Time
}

// answerWriters recycles the writers and their buffers: an answer allocates
// no buffer, whatever its size.
var answerWriters = sync.Pool{New: func() any { return &answerWriter{buf: make([]byte, 0, 1<<10)} }}

// beginAnswer commits a 200 response of the content type and returns its
// writer; end or release hands the writer back.
func beginAnswer(w http.ResponseWriter, contentType string) *answerWriter {
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(http.StatusOK)
	a := answerWriters.Get().(*answerWriter)
	a.w, a.began = w, time.Now()
	return a
}

// write hands the buffered bytes to the ResponseWriter. A failed write is a
// client that hung up; the rest of its answer goes nowhere.
func (a *answerWriter) write() {
	if len(a.buf) > 0 {
		_, _ = a.w.Write(a.buf)
		a.buf = a.buf[:0]
	}
}

// spill writes the buffer out once it holds a chunk.
func (a *answerWriter) spill() {
	if len(a.buf) >= answerChunk {
		a.write()
	}
}

// line ends one NDJSON line and flushes it, so the client sees every line as
// soon as it is produced.
func (a *answerWriter) line() {
	a.buf = append(a.buf, '\n')
	a.write()
	if f, ok := a.w.(http.Flusher); ok {
		f.Flush()
	}
}

// end finishes a JSON body with the newline encoding/json's Encoder ends a
// value with, writes it, and releases the writer.
func (a *answerWriter) end() {
	a.buf = append(a.buf, '\n')
	a.write()
	a.release()
}

// release returns the writer to the pool.
func (a *answerWriter) release() {
	a.w = nil
	if cap(a.buf) <= maxPooledAnswer {
		a.buf = a.buf[:0]
		answerWriters.Put(a)
	}
}

// communities appends cs as a JSON array, or null when there are none (what
// encoding/json writes for the nil slice of an empty answer), spilling as
// the body grows.
func (a *answerWriter) communities(cs []truss.Community, ranked bool, names *federation.QuotedNames) {
	if len(cs) == 0 {
		a.buf = append(a.buf, "null"...)
		return
	}
	for i := range cs {
		if i == 0 {
			a.buf = append(a.buf, "[{"...)
		} else {
			a.buf = append(a.buf, ",{"...)
		}
		a.buf = appendCommunity(a.buf, &cs[i], ranked, names)
		a.spill()
	}
	a.buf = append(a.buf, ']')
}

// answerHead is the envelope of one QueryResponse — or of a
// NetworkQueryResponse, when network is set: every field but the
// communities and the next cursor.
type answerHead struct {
	network   string
	alpha     float64
	pattern   itemset.Itemset // empty: omitted
	contains  bool
	topK      int
	retrieved int
	visited   int
	micros    int64
}

// query appends one QueryResponse object: the head, the communities and the
// next cursor when one is due.
func (a *answerWriter) query(h *answerHead, cs []truss.Community, ranked bool, names *federation.QuotedNames, nextCursor string) {
	b := append(a.buf, '{')
	if h.network != "" {
		b = append(b, `"network":`...)
		b = appendString(b, h.network)
		b = append(b, ',')
	}
	b = append(b, `"alpha":`...)
	b = appendFloat(b, h.alpha)
	if len(h.pattern) > 0 {
		b = append(b, `,"pattern":`...)
		b = names.AppendItems(b, h.pattern)
	}
	if h.contains {
		b = append(b, `,"contains":true`...)
	}
	b = appendOmitInt(b, `,"topK":`, h.topK)
	b = append(b, `,"retrievedNodes":`...)
	b = strconv.AppendInt(b, int64(h.retrieved), 10)
	b = append(b, `,"visitedNodes":`...)
	b = strconv.AppendInt(b, int64(h.visited), 10)
	b = append(b, `,"queryMicros":`...)
	b = strconv.AppendInt(b, h.micros, 10)
	a.buf = append(b, `,"communities":`...)
	a.communities(cs, ranked, names)
	if nextCursor != "" {
		a.buf = append(a.buf, `,"nextCursor":`...)
		a.buf = appendString(a.buf, nextCursor)
	}
	a.buf = append(a.buf, '}')
}

// writeAnswer writes one QueryResponse of t as the whole 200 body.
func (s *Server) writeAnswer(t *tenant, w http.ResponseWriter, h *answerHead, cs []truss.Community, ranked bool, nextCursor string) {
	a := beginAnswer(w, "application/json")
	a.query(h, cs, ranked, t.names, nextCursor)
	s.endAnswer(t, a)
}

// endAnswer ends the JSON body of t's answer and observes its encode: all of
// it, from the commit on, is rendering and writing.
func (s *Server) endAnswer(t *tenant, a *answerWriter) {
	began := a.began
	a.end()
	t.encode += time.Since(began)
	s.observeEncode(t)
}

// appendCommunity appends the fields of community c and the closing brace
// to a JSON object the caller has opened — with `{`, or `{"network":"n",`
// and the like — exactly as encoding/json writes a CommunityResponse: theme
// and vertices through the name tables, edges, and on ranked answers the
// cohesion (omitted at zero, like omitempty).
func appendCommunity(buf []byte, c *truss.Community, ranked bool, names *federation.QuotedNames) []byte {
	buf = append(buf, `"theme":`...)
	buf = names.AppendItems(buf, c.Pattern)
	buf = append(buf, `,"vertices":`...)
	buf = names.AppendVertices(buf, c.Vertices)
	buf = append(buf, `,"edges":`...)
	buf = strconv.AppendInt(buf, int64(c.Edges), 10)
	if ranked && c.Cohesion != 0 {
		buf = append(buf, `,"cohesion":`...)
		buf = appendFloat(buf, c.Cohesion)
	}
	return append(buf, '}')
}

// appendCommunityLine appends one StreamCommunity object; network labels
// the lines of a queryall stream and is omitted when empty.
func appendCommunityLine(buf []byte, network string, c *truss.Community, ranked bool, names *federation.QuotedNames) []byte {
	buf = append(buf, `{"type":"community",`...)
	if network != "" {
		buf = append(buf, `"network":`...)
		buf = appendString(buf, network)
		buf = append(buf, ',')
	}
	return appendCommunity(buf, c, ranked, names)
}

// appendStreamHeader appends a StreamHeader object.
func appendStreamHeader(buf []byte, h *StreamHeader) []byte {
	buf = append(buf, `{"type":"header"`...)
	if h.Network != "" {
		buf = append(buf, `,"network":`...)
		buf = appendString(buf, h.Network)
	}
	buf = append(buf, `,"alpha":`...)
	buf = appendFloat(buf, h.Alpha)
	if len(h.Pattern) > 0 {
		buf = append(buf, `,"pattern":`...)
		buf = appendStrings(buf, h.Pattern)
	}
	buf = appendOmitInt(buf, `,"topK":`, h.TopK)
	if h.Epoch != 0 {
		buf = append(buf, `,"epoch":`...)
		buf = strconv.AppendUint(buf, h.Epoch, 10)
	}
	return append(buf, '}')
}

// appendStreamTrailer appends a StreamTrailer object.
func appendStreamTrailer(buf []byte, t *StreamTrailer) []byte {
	buf = append(buf, `{"type":"trailer","emitted":`...)
	buf = strconv.AppendInt(buf, int64(t.Emitted), 10)
	buf = appendOmitInt(buf, `,"retrievedNodes":`, t.RetrievedNodes)
	buf = appendOmitInt(buf, `,"visitedNodes":`, t.VisitedNodes)
	buf = appendOmitInt(buf, `,"shardsShortCircuited":`, t.ShardsShortCircuited)
	buf = append(buf, `,"queryMicros":`...)
	buf = strconv.AppendInt(buf, t.QueryMicros, 10)
	if t.NextCursor != "" {
		buf = append(buf, `,"nextCursor":`...)
		buf = appendString(buf, t.NextCursor)
	}
	return append(buf, '}')
}

// appendOmitInt appends the field `,"name":v` unless v is zero, as
// omitempty does.
func appendOmitInt(buf []byte, field string, v int) []byte {
	if v == 0 {
		return buf
	}
	return strconv.AppendInt(append(buf, field...), int64(v), 10)
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in 'f' form, or in 'e' form outside
// [1e-6, 1e21) with a one-digit negative exponent unpadded (1e-7, not
// 1e-07). f must be finite, as every alpha and cohesion an answer carries
// is: the request layer refuses a NaN or infinite alpha, and DecodeBinShard
// a shard whose level thresholds are not finite.
func appendFloat(buf []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if n := len(buf); format == 'e' && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
		buf[n-2] = buf[n-1]
		buf = buf[:n-1]
	}
	return buf
}

// appendString appends s as a JSON string. Strings of printable ASCII that
// encoding/json leaves alone go straight in; anything else is quoted by
// json.Marshal, so the escaping is encoding/json's by construction.
func appendString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(buf, b...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// appendStrings appends ss as a JSON array of strings.
func appendStrings(buf []byte, ss []string) []byte {
	buf = append(buf, '[')
	for i, s := range ss {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendString(buf, s)
	}
	return append(buf, ']')
}

// observeEncode records the time this request spent encoding t's answer
// into the encode stage of tc_query_stage_duration_seconds.
func (s *Server) observeEncode(t *tenant) {
	if s.obsv != nil && t.encode > 0 {
		s.obsv.ObserveEncode(t.name, t.encode)
	}
}
