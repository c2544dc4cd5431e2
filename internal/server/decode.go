package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// DecodeReleases parses a release body into its members: a
// BatchRequest's requests when batch is set, otherwise one
// ReleaseRequest as a batch of one. It is the strict single-pass
// decoder both release endpoints run, and it accepts exactly the
// bodies encoding/json accepts for those types with unknown fields
// disallowed and nothing but whitespace after the value, decoding them
// to the same values:
//
//   - the whole JSON grammar is validated, up to encoding/json's
//     nesting limit; strings unescape as encoding/json unescapes them,
//     an unpaired \u surrogate and each byte of invalid UTF-8 becoming
//     U+FFFD;
//   - a key selects a field by exact name, else case-insensitively
//     under Unicode simple folding ("ſeed" is seed, and "K", the
//     Kelvin sign, is k); any other key is refused;
//   - a repeated key decodes again into the value already there, so
//     slices are reused element by element as encoding/json reuses
//     them;
//   - null leaves an int, float, string or request unchanged and sets
//     a slice to nil; network keeps the raw bytes of any JSON value,
//     null included;
//   - k, parallelism and session states refuse fractions, exponents
//     and overflow; seed refuses any sign; floats refuse overflow.
//
// An empty batch is refused. Nothing returned aliases body: every
// request holds its session states in one backing array of its own.
func DecodeReleases(body []byte, batch bool) ([]ReleaseRequest, error) {
	d := decoders.Get().(*decoder)
	defer d.free()
	return d.decode(body, batch)
}

// maxDepth is encoding/json's nesting limit for arrays and objects.
const maxDepth = 10000

// Pooled decoders keep their buffers only up to these sizes, so one
// large body does not pin its memory in the pool.
const (
	maxPooledBody = 1 << 20
	maxPooledInts = 1 << 17
)

var decoders = sync.Pool{New: func() any { return new(decoder) }}

// decoder is one pass over a body. Its buffers are scratch space,
// reused through the pool; nothing decoded points into them.
type decoder struct {
	in    []byte // the body read by read
	data  []byte // the body being decoded
	off   int    // next unread byte of data
	depth int    // open arrays and objects
	ints  []int  // session states of the sessions array being decoded
	rows  []row  // where each of its sessions lands
	buf   []byte // the last string that needed unescaping
}

// row places one element of a sessions array: fresh states
// ints[a:b], or a < 0 for nullRow or keptRow.
type row struct{ a, b int }

const (
	nullRow = -1 // null: the session is nil
	keptRow = -2 // decoded in place into the session already there
)

func (d *decoder) free() {
	d.data = nil
	if cap(d.in) > maxPooledBody {
		d.in = nil
	}
	if cap(d.buf) > maxPooledBody {
		d.buf = nil
	}
	if cap(d.ints) > maxPooledInts {
		d.ints, d.rows = nil, nil
	}
	decoders.Put(d)
}

// read reads r to the end into the decoder's body buffer.
func (d *decoder) read(r io.Reader) ([]byte, error) {
	b := d.in[:0]
	if cap(b) == 0 {
		b = make([]byte, 0, 512)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			d.in = b
			if err == io.EOF {
				return b, nil
			}
			return nil, err
		}
	}
}

func (d *decoder) decode(body []byte, batch bool) ([]ReleaseRequest, error) {
	d.data, d.off, d.depth = body, 0, 0
	var reqs []ReleaseRequest
	var err error
	if batch {
		reqs, err = d.batch()
	} else {
		reqs = make([]ReleaseRequest, 1)
		err = d.request(&reqs[0])
	}
	if err == nil {
		// A body must be exactly one JSON value: silently processing
		// only the first of two concatenated requests would drop the
		// second.
		if d.off = skipSpace(d.data, d.off); d.off < len(d.data) {
			err = errors.New("trailing data after the JSON value")
		}
	}
	if err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	if batch && len(reqs) == 0 {
		return nil, errors.New("empty batch")
	}
	return reqs, nil
}

// releaseFields are ReleaseRequest's JSON names; batchFields are
// BatchRequest's.
var (
	releaseFields = []string{"sessions", "series", "epsilon", "delta", "k", "mechanism", "noise",
		"substrate", "network", "smoothing", "seed", "parallelism", "accountant"}
	batchFields = []string{"requests"}
)

// matchField returns the name in names that key selects, as
// encoding/json selects a struct field: an exact match first, then a
// match under Unicode simple case folding; "" when none matches.
func matchField(key []byte, names []string) string {
	for _, n := range names {
		if string(key) == n {
			return n
		}
	}
	for _, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return n
		}
	}
	return ""
}

func (d *decoder) batch() ([]ReleaseRequest, error) {
	var reqs []ReleaseRequest
	if null, err := d.value('{', "a batch request object"); err != nil || null {
		return nil, err
	}
	for first := true; ; first = false {
		more, err := d.more(first, '}')
		if err != nil {
			return nil, err
		}
		if !more {
			return reqs, nil
		}
		key, err := d.key()
		if err != nil {
			return nil, err
		}
		if matchField(key, batchFields) == "" {
			return nil, fmt.Errorf("unknown field %q", key)
		}
		if reqs, err = d.requests(reqs); err != nil {
			return nil, err
		}
	}
}

// requests decodes an array of requests into s, reusing its elements.
func (d *decoder) requests(s []ReleaseRequest) ([]ReleaseRequest, error) {
	if null, err := d.value('[', "an array of requests"); err != nil || null {
		return nil, err
	}
	return reuse(d, s, d.request)
}

// request decodes a release request object into r. A null request
// leaves r unchanged.
func (d *decoder) request(r *ReleaseRequest) error {
	if null, err := d.value('{', "a release request object"); err != nil || null {
		return err
	}
	for first := true; ; first = false {
		more, err := d.more(first, '}')
		if err != nil {
			return err
		}
		if !more {
			return nil
		}
		key, err := d.key()
		if err != nil {
			return err
		}
		switch matchField(key, releaseFields) {
		case "sessions":
			r.Sessions, err = d.sessions(r.Sessions)
		case "series":
			err = d.string(&r.Series)
		case "epsilon":
			err = d.float(&r.Epsilon)
		case "delta":
			err = d.float(&r.Delta)
		case "k":
			err = d.int(&r.K)
		case "mechanism":
			err = d.string(&r.Mechanism)
		case "noise":
			err = d.string(&r.Noise)
		case "substrate":
			err = d.string(&r.Substrate)
		case "network":
			err = d.raw(&r.Network)
		case "smoothing":
			err = d.float(&r.Smoothing)
		case "seed":
			err = d.uint64(&r.Seed)
		case "parallelism":
			err = d.int(&r.Parallelism)
		case "accountant":
			err = d.string(&r.Accountant)
		default:
			err = fmt.Errorf("unknown field %q", key)
		}
		if err != nil {
			return err
		}
	}
}

// sessions decodes an array of integer arrays into dst. A session with
// nothing to reuse takes its states from one backing array shared by
// the whole sessions value, capped so that no session can grow into
// the next.
func (d *decoder) sessions(dst [][]int) ([][]int, error) {
	if null, err := d.value('[', "an array of sessions"); err != nil || null {
		return nil, err
	}
	d.ints, d.rows = d.ints[:0], d.rows[:0]
	hist := dst[:cap(dst)]
	for i := 0; ; i++ {
		more, err := d.more(i == 0, ']')
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
		c, err := d.peek()
		if err != nil {
			return nil, err
		}
		switch {
		case c == 'n':
			err = d.literal("null")
			d.rows = append(d.rows, row{a: nullRow})
		case c == '[' && (i >= len(hist) || cap(hist[i]) == 0):
			a := len(d.ints)
			err = d.appendInts()
			d.rows = append(d.rows, row{a, len(d.ints)})
		case c == '[':
			hist[i], err = d.intsInto(hist[i])
			d.rows = append(d.rows, row{a: keptRow})
		default:
			err = d.typeError(c, "a session array")
		}
		if err != nil {
			return nil, err
		}
	}
	n := len(d.rows)
	if n == 0 {
		return [][]int{}, nil
	}
	out := hist
	if n <= len(hist) {
		out = hist[:n]
	} else {
		out = make([][]int, n)
		copy(out, hist)
	}
	states := make([]int, len(d.ints))
	copy(states, d.ints)
	for i, r := range d.rows {
		switch {
		case r.a >= 0:
			out[i] = states[r.a:r.b:r.b]
		case r.a == nullRow:
			out[i] = nil
		}
	}
	return out, nil
}

// appendInts decodes the array of integers at d.off onto d.ints, a
// null element as zero. It is the inner loop of a body: the common
// element, a short non-negative integer, is read in place, and d.int
// takes the rest.
func (d *decoder) appendInts() error {
	if err := d.enter(); err != nil {
		return err
	}
	data, i := d.data, skipSpace(d.data, d.off)
	if i < len(data) && data[i] == ']' {
		d.off = i + 1
		d.depth--
		return nil
	}
	for {
		j, v := i, 0
		for j < len(data) && j-i < 18 && isDigit(data[j]) {
			v = v*10 + int(data[j]-'0')
			j++
		}
		if j == i || (data[i] == '0' && j > i+1) || j-i == 18 {
			d.off = i
			if err := d.int(&v); err != nil {
				return err
			}
			j = d.off
		}
		d.ints = append(d.ints, v)
		j = skipSpace(data, j)
		switch {
		case j < len(data) && data[j] == ',':
			i = skipSpace(data, j+1)
		case j < len(data) && data[j] == ']':
			d.off = j + 1
			d.depth--
			return nil
		default:
			// A fraction, an exponent or a stray byte: let d.int name it.
			d.off = i
			if err := d.int(&v); err != nil {
				return err
			}
			d.off = skipSpace(data, d.off)
			return d.syntax()
		}
	}
}

// intsInto decodes the array of integers at d.off into s: a null
// element keeps the value s already holds at its position.
func (d *decoder) intsInto(s []int) ([]int, error) {
	if err := d.enter(); err != nil {
		return nil, err
	}
	return reuse(d, s, d.int)
}

// reuse decodes the elements of an entered array into s the way
// encoding/json decodes into a slice it already holds: element i
// decodes into s's backing array at i, so what is stored there is
// kept where the element leaves it unchanged; s grows past its
// capacity by append; an empty array gives a new empty slice.
func reuse[T any](d *decoder, s []T, elem func(*T) error) ([]T, error) {
	n := 0
	for ; ; n++ {
		more, err := d.more(n == 0, ']')
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
		switch {
		case n < len(s):
		case n < cap(s):
			s = s[:n+1]
		default:
			var zero T
			s = append(s, zero)
		}
		if err := elem(&s[n]); err != nil {
			return nil, err
		}
	}
	if n == 0 {
		return []T{}, nil
	}
	return s[:n], nil
}

func (d *decoder) string(dst *string) error {
	if null, err := d.value('"', "a string"); err != nil || null {
		return err
	}
	s, err := d.str()
	if err == nil {
		*dst = string(s)
	}
	return err
}

func (d *decoder) float(dst *float64) error {
	if null, err := d.value('0', "a number"); err != nil || null {
		return err
	}
	num, err := d.number()
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return fmt.Errorf("number %s out of range", num)
	}
	*dst = f
	return nil
}

func (d *decoder) uint64(dst *uint64) error {
	if null, err := d.value('0', "a number"); err != nil || null {
		return err
	}
	num, err := d.number()
	if err != nil {
		return err
	}
	u, err := strconv.ParseUint(string(num), 10, 64)
	if err != nil {
		return fmt.Errorf("number %s is not an unsigned 64-bit integer", num)
	}
	*dst = u
	return nil
}

func (d *decoder) int(dst *int) error {
	if null, err := d.value('0', "an integer"); err != nil || null {
		return err
	}
	num, err := d.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(string(num), 10, 0)
	if err != nil {
		return fmt.Errorf("number %s is not a %d-bit integer", num, strconv.IntSize)
	}
	*dst = int(v)
	return nil
}

// raw validates any JSON value and copies its bytes into dst, as
// json.RawMessage does.
func (d *decoder) raw(dst *json.RawMessage) error {
	if _, err := d.peek(); err != nil {
		return err
	}
	start := d.off
	if err := d.skip(); err != nil {
		return err
	}
	*dst = append((*dst)[:0], d.data[start:d.off]...)
	return nil
}

// skip validates one JSON value of any kind and moves past it.
func (d *decoder) skip() error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch {
	case c == '{':
		if err := d.enter(); err != nil {
			return err
		}
		for first := true; ; first = false {
			more, err := d.more(first, '}')
			if err != nil {
				return err
			}
			if !more {
				return nil
			}
			if _, err := d.key(); err != nil {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '[':
		if err := d.enter(); err != nil {
			return err
		}
		for first := true; ; first = false {
			more, err := d.more(first, ']')
			if err != nil {
				return err
			}
			if !more {
				return nil
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '"':
		_, err = d.str()
	case c == 't':
		err = d.literal("true")
	case c == 'f':
		err = d.literal("false")
	case c == 'n':
		err = d.literal("null")
	case c == '-' || isDigit(c):
		_, err = d.number()
	default:
		err = d.syntax()
	}
	return err
}

// value starts a value that must be null, which it consumes and
// reports, or of the kind that opens with first: '"' a string, '0' a
// number, '[' an array or '{' an object, which it enters. want names
// the kind for the error.
func (d *decoder) value(first byte, want string) (null bool, err error) {
	c, err := d.peek()
	switch {
	case err != nil:
		return false, err
	case c == 'n':
		return true, d.literal("null")
	case c == first && (c == '[' || c == '{'):
		return false, d.enter()
	case c == first || first == '0' && (c == '-' || isDigit(c)):
		return false, nil
	}
	return false, d.typeError(c, want)
}

// enter consumes the '[' or '{' at d.off and counts its depth.
func (d *decoder) enter() error {
	d.off++
	if d.depth++; d.depth > maxDepth {
		return errors.New("exceeded max depth")
	}
	return nil
}

// more reports whether another element of the open array or object
// follows, consuming the comma before it, or the closing delimiter.
func (d *decoder) more(first bool, closing byte) (bool, error) {
	c, err := d.peek()
	switch {
	case err != nil:
		return false, err
	case c == closing:
		d.off++
		d.depth--
		return false, nil
	case first:
		return true, nil
	case c == ',':
		d.off++
		return true, nil
	}
	return false, d.syntax()
}

// key reads an object key and its colon. The key may alias d.buf.
func (d *decoder) key() ([]byte, error) {
	c, err := d.peek()
	if err != nil {
		return nil, err
	}
	if c != '"' {
		return nil, d.syntax()
	}
	key, err := d.str()
	if err != nil {
		return nil, err
	}
	if c, err = d.peek(); err != nil {
		return nil, err
	}
	if c != ':' {
		return nil, d.syntax()
	}
	d.off++
	return key, nil
}

// str reads the string at d.off and returns its unescaped bytes. They
// alias the body when nothing needed unescaping, else d.buf.
func (d *decoder) str() ([]byte, error) {
	d.off++ // the opening quote
	start := d.off
	for d.off < len(d.data) {
		c := d.data[d.off]
		switch {
		case c == '"':
			d.off++
			return d.data[start : d.off-1], nil
		case c == '\\' || c < ' ':
			return d.unescape(start)
		case c < utf8.RuneSelf:
			d.off++
		default:
			r, size := utf8.DecodeRune(d.data[d.off:])
			if r == utf8.RuneError && size == 1 {
				return d.unescape(start)
			}
			d.off += size
		}
	}
	return nil, d.syntax()
}

// unescape finishes a string that needs decoding, from d.off on, the
// way encoding/json unquotes one.
func (d *decoder) unescape(start int) ([]byte, error) {
	b := append(d.buf[:0], d.data[start:d.off]...)
	defer func() { d.buf = b }()
	for d.off < len(d.data) {
		c := d.data[d.off]
		switch {
		case c == '"':
			d.off++
			return b, nil
		case c < ' ':
			return nil, d.syntax()
		case c == '\\':
			if d.off+1 >= len(d.data) {
				d.off = len(d.data)
				return nil, d.syntax()
			}
			d.off++
			switch e := d.data[d.off]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := d.hex4(d.off + 1)
				if r < 0 {
					return nil, d.syntax()
				}
				d.off += 4
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if d.off+2 < len(d.data) && d.data[d.off+1] == '\\' && d.data[d.off+2] == 'u' {
						r2 = d.hex4(d.off + 3)
					}
					// A valid pair is consumed whole; anything else
					// leaves the next escape to be read on its own.
					if pair := utf16.DecodeRune(r, r2); pair != unicode.ReplacementChar {
						r = pair
						d.off += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				b = utf8.AppendRune(b, r)
			default:
				return nil, d.syntax()
			}
			d.off++
		case c < utf8.RuneSelf:
			b = append(b, c)
			d.off++
		default:
			r, size := utf8.DecodeRune(d.data[d.off:])
			b = utf8.AppendRune(b, r)
			d.off += size
		}
	}
	return nil, d.syntax()
}

// hex4 decodes the four hex digits at data[i:], or returns -1.
func (d *decoder) hex4(i int) rune {
	if i+4 > len(d.data) {
		return -1
	}
	r, err := strconv.ParseUint(string(d.data[i:i+4]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(r)
}

// number reads a JSON number and returns its bytes.
func (d *decoder) number() ([]byte, error) {
	start := d.off
	d.accept('-')
	switch {
	case d.accept('0'):
	case d.digits() == 0:
		return nil, d.syntax()
	}
	if d.accept('.') && d.digits() == 0 {
		return nil, d.syntax()
	}
	if d.accept('e') || d.accept('E') {
		if !d.accept('+') {
			d.accept('-')
		}
		if d.digits() == 0 {
			return nil, d.syntax()
		}
	}
	return d.data[start:d.off], nil
}

// accept consumes c if it is next.
func (d *decoder) accept(c byte) bool {
	if d.off < len(d.data) && d.data[d.off] == c {
		d.off++
		return true
	}
	return false
}

// digits consumes a run of decimal digits and returns its length.
func (d *decoder) digits() int {
	start := d.off
	for d.off < len(d.data) && isDigit(d.data[d.off]) {
		d.off++
	}
	return d.off - start
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func (d *decoder) literal(lit string) error {
	if len(d.data)-d.off < len(lit) || string(d.data[d.off:d.off+len(lit)]) != lit {
		// Point the error at the first byte that differs.
		for i := 0; i < len(lit) && d.off < len(d.data) && d.data[d.off] == lit[i]; i++ {
			d.off++
		}
		return d.syntax()
	}
	d.off += len(lit)
	return nil
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}

// peek skips whitespace and returns the next byte.
func (d *decoder) peek() (byte, error) {
	d.off = skipSpace(d.data, d.off)
	if d.off >= len(d.data) {
		return 0, d.syntax()
	}
	return d.data[d.off], nil
}

// syntax reports the byte at d.off as unexpected.
func (d *decoder) syntax() error {
	if d.off >= len(d.data) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q at offset %d", d.data[d.off], d.off)
}

// typeError reports a value at d.off, starting with c, that cannot
// decode as want: a well-formed value of another kind, or a syntax
// error.
func (d *decoder) typeError(c byte, want string) error {
	if !strings.ContainsRune(`{["tf-0123456789`, rune(c)) {
		return d.syntax()
	}
	return fmt.Errorf("want %s at offset %d", want, d.off)
}
