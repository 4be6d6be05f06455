package api

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
	"unsafe"

	"repro/internal/mempool"
)

// Hand-written JSON for the two wire types that carry int arrays, JobRequest
// and JobResult (with its Report). encoding/json decodes them through a
// reflective token scanner that grows the slices element by element, which
// on small jobs costs more than the job. Here the arrays are written with
// strconv.AppendInt and read in one pass into a slice sized by counting the
// commas.
//
// The contract is encoding/json's behaviour, byte for byte. AppendJSON gives
// exactly json.Marshal's bytes: its field order, omitempty, float format and
// HTML escaping (a string with anything but printable ASCII, or with a
// character encoding/json escapes, is encoded by encoding/json itself; so is
// a value json.Marshal refuses, a NaN or infinite float). UnmarshalJSON takes
// the hand path only for the canonical form — exact lower-case keys, each at
// most once, strings of printable ASCII without escapes, integers in range,
// no null — and hands anything else to encoding/json on a method-less copy of
// the type. So the hand path accepts nothing encoding/json rejects, decodes
// nothing to a different value, and every error is encoding/json's.
// FuzzJobRequestJSON and FuzzJobResultJSON hold the codec to all of it.
//
// Decoded slices and pointers are always fresh: unlike encoding/json, the
// hand path does not write into the arrays or structs an existing value
// points to (the values are the same).
//
// There is deliberately no MarshalJSON. encoding/json compacts and validates
// whatever a Marshaler returns, byte by byte, and copies it; at 2^18
// elements that made json.Marshal twice as slow as its reflective encoder
// (EXPERIMENTS.md, "JSON without reflection"). json.Marshal keeps encoding
// these types by reflection, to the same bytes; the api layer calls
// AppendJSON.

// jobRequestJSON and jobResultJSON are the wire types without their methods:
// what encoding/json decodes into on the fallback path.
type (
	jobRequestJSON JobRequest
	jobResultJSON  JobResult
)

// AppendJSON appends json.Marshal's encoding of r to dst. Like json.Marshal,
// it fails only on a NaN or infinite Alpha.
func (r JobRequest) AppendJSON(dst []byte) ([]byte, error) {
	if !finite(r.Alpha) {
		return appendMarshal(dst, r)
	}
	dst = append(dst, `{"algorithm":`...)
	dst = appendString(dst, r.Algorithm)
	dst = append(dst, `,"data":`...)
	dst = appendInts(dst, r.Data)
	if r.Strategy != "" {
		dst = append(dst, `,"strategy":`...)
		dst = appendString(dst, r.Strategy)
	}
	dst = appendFloatField(dst, `,"alpha":`, r.Alpha)
	dst = appendIntField(dst, `,"y":`, int64(r.Y))
	dst = appendIntField(dst, `,"crossover":`, int64(r.Crossover))
	dst = appendIntField(dst, `,"priority":`, int64(r.Priority))
	if r.Coalesce {
		dst = append(dst, `,"coalesce":true`...)
	}
	if rel := r.Reliability; rel != nil {
		dst = append(dst, `,"reliability":`...)
		start := len(dst)
		dst = appendIntField(dst, `,"max_retries":`, int64(rel.MaxRetries))
		dst = appendIntField(dst, `,"backoff_ms":`, rel.BackoffMS)
		dst = appendIntField(dst, `,"deadline_ms":`, rel.DeadlineMS)
		dst = appendIntField(dst, `,"hedge_ms":`, rel.HedgeMS)
		if rel.Fallback != "" {
			dst = append(dst, `,"fallback":`...)
			dst = appendString(dst, rel.Fallback)
		}
		if len(dst) == start {
			dst = append(dst, '{')
		} else {
			dst[start] = '{' // the first field's comma opens the object
		}
		dst = append(dst, '}')
	}
	return append(dst, '}'), nil
}

// AppendJSON appends json.Marshal's encoding of r to dst. Like json.Marshal,
// it fails only on a NaN or infinite report time.
func (r JobResult) AppendJSON(dst []byte) ([]byte, error) {
	rep := &r.Report
	if !finite(rep.Seconds) || !finite(rep.CPUPortionSeconds) || !finite(rep.GPUPortionSeconds) {
		return appendMarshal(dst, r)
	}
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, r.ID, 10)
	dst = append(dst, `,"report":{"algorithm":`...)
	dst = appendString(dst, rep.Algorithm)
	dst = append(dst, `,"strategy":`...)
	dst = appendString(dst, rep.Strategy)
	if rep.ChosenStrategy != "" {
		dst = append(dst, `,"chosen_strategy":`...)
		dst = appendString(dst, rep.ChosenStrategy)
	}
	dst = append(dst, `,"seconds":`...)
	dst = appendFloat(dst, rep.Seconds)
	dst = appendFloatField(dst, `,"cpu_portion_seconds":`, rep.CPUPortionSeconds)
	dst = appendFloatField(dst, `,"gpu_portion_seconds":`, rep.GPUPortionSeconds)
	if rep.Partial {
		dst = append(dst, `,"partial":true`...)
	}
	dst = append(dst, '}')
	if len(r.Sorted) > 0 {
		dst = append(dst, `,"sorted":`...)
		dst = appendInts(dst, r.Sorted)
	}
	if len(r.Scan) > 0 {
		dst = append(dst, `,"scan":`...)
		dst = appendInts(dst, r.Scan)
	}
	if r.Sum != nil {
		dst = append(dst, `,"sum":`...)
		dst = strconv.AppendInt(dst, *r.Sum, 10)
	}
	return append(dst, '}'), nil
}

// appendMarshal appends encoding/json's encoding of v to dst.
func appendMarshal(dst []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendString appends s as a JSON string. Printable ASCII other than the
// characters encoding/json escapes is copied as it is; any other string is
// encoded by encoding/json.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always encodes
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendInts appends a as a JSON array, or null for a nil slice.
func appendInts[T int32 | int64](dst []byte, a []T) []byte {
	if a == nil {
		return append(dst, "null"...)
	}
	dst = slices.Grow(dst, 12*len(a)+2) // a ten-digit int32 and its comma
	dst = append(dst, '[')
	for i, v := range a {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, ']')
}

// appendIntField appends key and v unless v is 0 (omitempty).
func appendIntField(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// appendFloatField appends key and f unless f is 0 (omitempty).
func appendFloatField(dst []byte, key string, f float64) []byte {
	if f == 0 {
		return dst
	}
	return appendFloat(append(dst, key...), f)
}

// appendFloat formats a finite f as encoding/json does: the shortest decimal
// that round-trips, in exponent form below 1e-6 and from 1e21 on, with a
// one-digit negative exponent unpadded (1e-7, not 1e-07).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *JobRequest) UnmarshalJSON(b []byte) error {
	t := *r
	if t.decode(b, newSlice[int32]) {
		*r = t
		return nil
	}
	var err error
	*r, err = reflectJobRequest(b, *r)
	return err
}

// decodeJobRequest decodes a submission body. On the hand path the data
// array is leased from mempool.Int32s: the job owns it, like a binary
// payload.
func decodeJobRequest(b []byte) (JobRequest, error) {
	var req JobRequest
	if req.decode(b, mempool.Int32s.Get) {
		return req, nil
	}
	mempool.Int32s.Put(req.Data) // the lease, if the hand path got that far
	return reflectJobRequest(b, JobRequest{})
}

// reflectJobRequest and reflectJobResult are the fallbacks: encoding/json
// decodes b over v, on the method-less type renamed back, so its errors
// read "Go struct field JobRequest.data". Only the copy v goes to the heap
// for json.Unmarshal, and only on this path.
func reflectJobRequest(b []byte, v JobRequest) (JobRequest, error) {
	type JobRequest jobRequestJSON
	err := json.Unmarshal(b, (*JobRequest)(&v))
	return v, err
}

func reflectJobResult(b []byte, v JobResult) (JobResult, error) {
	type JobResult jobResultJSON
	err := json.Unmarshal(b, (*JobResult)(&v))
	return v, err
}

// requestKeys and the other key lists are the canonical keys of a type.
var (
	requestKeys     = []string{"algorithm", "data", "strategy", "alpha", "y", "crossover", "priority", "coalesce", "reliability"}
	reliabilityKeys = []string{"max_retries", "backoff_ms", "deadline_ms", "hedge_ms", "fallback"}
	resultKeys      = []string{"id", "report", "sorted", "scan", "sum"}
	reportKeys      = []string{"algorithm", "strategy", "chosen_strategy", "seconds", "cpu_portion_seconds", "gpu_portion_seconds", "partial"}
)

// decode is the hand path: false at the first byte outside the canonical
// form, with r partly written (its Data, if set, is what alloc returned).
func (r *JobRequest) decode(b []byte, alloc func(int) []int32) bool {
	l := &lexer{b: b}
	return l.object(requestKeys, func(key string) bool {
		switch key {
		case "algorithm":
			return l.str(&r.Algorithm)
		case "data":
			return lexInts(l, &r.Data, alloc)
		case "strategy":
			return l.str(&r.Strategy)
		case "alpha":
			return l.float(&r.Alpha)
		case "y":
			return lexInt(l, &r.Y)
		case "crossover":
			return lexInt(l, &r.Crossover)
		case "priority":
			return lexInt(l, &r.Priority)
		case "coalesce":
			return l.bool(&r.Coalesce)
		}
		rel := new(Reliability) // "reliability"
		if r.Reliability != nil {
			*rel = *r.Reliability
		}
		r.Reliability = rel
		return l.object(reliabilityKeys, func(key string) bool {
			switch key {
			case "max_retries":
				return lexInt(l, &rel.MaxRetries)
			case "backoff_ms":
				return lexInt(l, &rel.BackoffMS)
			case "deadline_ms":
				return lexInt(l, &rel.DeadlineMS)
			case "hedge_ms":
				return lexInt(l, &rel.HedgeMS)
			}
			return l.str(&rel.Fallback) // "fallback"
		})
	}) && l.end()
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *JobResult) UnmarshalJSON(b []byte) error {
	t := *r
	if t.decode(b) {
		*r = t
		return nil
	}
	var err error
	*r, err = reflectJobResult(b, *r)
	return err
}

// decode is the hand path, false at the first byte outside the canonical
// form.
func (r *JobResult) decode(b []byte) bool {
	l := &lexer{b: b}
	rep := &r.Report
	return l.object(resultKeys, func(key string) bool {
		switch key {
		case "id":
			return l.uint(&r.ID)
		case "sorted":
			return lexInts(l, &r.Sorted, newSlice[int32])
		case "scan":
			return lexInts(l, &r.Scan, newSlice[int64])
		case "sum":
			r.Sum = new(int64)
			return lexInt(l, r.Sum)
		}
		return l.object(reportKeys, func(key string) bool { // "report"
			switch key {
			case "algorithm":
				return l.str(&rep.Algorithm)
			case "strategy":
				return l.str(&rep.Strategy)
			case "chosen_strategy":
				return l.str(&rep.ChosenStrategy)
			case "seconds":
				return l.float(&rep.Seconds)
			case "cpu_portion_seconds":
				return l.float(&rep.CPUPortionSeconds)
			case "gpu_portion_seconds":
				return l.float(&rep.GPUPortionSeconds)
			}
			return l.bool(&rep.Partial) // "partial"
		})
	}) && l.end()
}

func newSlice[T int32 | int64](n int) []T { return make([]T, n) }

// lexer reads the canonical form. Every method reports false at the first
// byte outside it, and the caller falls back to encoding/json.
type lexer struct {
	b []byte
	i int
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

// eat consumes c after any whitespace.
func (l *lexer) eat(c byte) bool {
	l.i = skipSpace(l.b, l.i)
	if l.i < len(l.b) && l.b[l.i] == c {
		l.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (l *lexer) end() bool { return skipSpace(l.b, l.i) == len(l.b) }

// object reads {"key":value,...}, calling field with the lexer at each value.
// Every key must be one of keys, exactly, and appear at most once: a second
// one would make encoding/json merge the two values.
func (l *lexer) object(keys []string, field func(key string) bool) bool {
	if !l.eat('{') {
		return false
	}
	if l.eat('}') {
		return true
	}
	var seen uint
	for {
		raw, ok := l.rawString()
		if !ok || !l.eat(':') {
			return false
		}
		k := -1
		for j, key := range keys {
			if string(raw) == key {
				k = j
				break
			}
		}
		if k < 0 || seen&(1<<k) != 0 || !field(keys[k]) {
			return false
		}
		seen |= 1 << k
		if l.eat('}') {
			return true
		}
		if !l.eat(',') {
			return false
		}
	}
}

// rawString reads a string of printable ASCII without escapes and returns
// its contents.
func (l *lexer) rawString() ([]byte, bool) {
	if !l.eat('"') {
		return nil, false
	}
	for j := l.i; j < len(l.b); j++ {
		switch c := l.b[j]; {
		case c == '"':
			s := l.b[l.i:j]
			l.i = j + 1
			return s, true
		case c < 0x20 || c == '\\' || c >= utf8.RuneSelf:
			return nil, false
		}
	}
	return nil, false
}

func (l *lexer) str(dst *string) bool {
	s, ok := l.rawString()
	*dst = string(s)
	return ok
}

func (l *lexer) bool(dst *bool) bool {
	l.i = skipSpace(l.b, l.i)
	switch rest := l.b[l.i:]; {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		*dst, l.i = true, l.i+4
	case len(rest) >= 5 && string(rest[:5]) == "false":
		*dst, l.i = false, l.i+5
	default:
		return false
	}
	return true
}

// number reads a token of JSON's number grammar.
func (l *lexer) number() ([]byte, bool) {
	b := l.b
	start := skipSpace(b, l.i)
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	ok := true
	if i < len(b) && b[i] == '.' {
		i, ok = someDigits(b, i+1)
	}
	if ok && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		i, ok = someDigits(b, i)
	}
	l.i = i
	return b[start:i], ok
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// someDigits is digits for at least one digit.
func someDigits(b []byte, i int) (int, bool) {
	j := digits(b, i)
	return j, j > i
}

// float, uint and lexInt parse a number token with the strconv call
// encoding/json makes for the field's type, so a fraction or exponent in an
// integer, or a value out of range, fails here exactly when it fails there.
func (l *lexer) float(dst *float64) bool {
	tok, ok := l.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	*dst = f
	return err == nil
}

func (l *lexer) uint(dst *uint64) bool {
	tok, ok := l.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseUint(string(tok), 10, 64)
	*dst = v
	return err == nil
}

func lexInt[T int | int64](l *lexer, dst *T) bool {
	tok, ok := l.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseInt(string(tok), 10, 8*int(unsafe.Sizeof(*dst)))
	*dst = T(v)
	return err == nil
}

// lexInts reads an array of integers into *dst, a slice from alloc sized by
// the commas before the first ']'. It parses the digits itself: the hot loop
// of the codec.
func lexInts[T int32 | int64](l *lexer, dst *[]T, alloc func(int) []T) bool {
	if !l.eat('[') {
		return false
	}
	if l.eat(']') {
		*dst = []T{}
		return true
	}
	b := l.b
	end := bytes.IndexByte(b[l.i:], ']')
	if end < 0 {
		return false
	}
	out := alloc(bytes.Count(b[l.i:l.i+end], []byte{','}) + 1)
	*dst = out
	max := uint64(1)<<(8*unsafe.Sizeof(out[0])-1) - 1
	i := l.i
	for k := range out {
		if k > 0 {
			if i = skipSpace(b, i); i == len(b) || b[i] != ',' {
				return false
			}
			i++
		}
		i = skipSpace(b, i)
		neg := i < len(b) && b[i] == '-'
		if neg {
			i++
		}
		start := i
		var u uint64
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			u = u*10 + uint64(b[i]-'0')
		}
		// At most 19 digits, so u did not wrap; no leading zero.
		if n := i - start; n == 0 || n > 19 || n > 1 && b[start] == '0' {
			return false
		}
		if neg {
			if u > max+1 {
				return false
			}
			out[k] = T(-int64(u))
		} else {
			if u > max {
				return false
			}
			out[k] = T(u)
		}
	}
	l.i = i
	return l.eat(']')
}
