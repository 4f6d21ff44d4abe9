package crawler

import "bytes"

// indent appends to dst the compact JSON src indented as
// json.Indent(dst, src, "", " ") would indent it, byte for byte. It
// skips json.Indent's validating scanner: for compact input the only
// state that matters is whether a byte sits inside a string, and a
// string's end is found with one bytes.IndexByte per quote.
func indent(dst, src []byte) []byte {
	depth := 0
	start := 0 // src[start:i] is pending, copied verbatim
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '"':
			i = stringEnd(src, i+1)
		case '{', '[':
			// '}' and ']' are two past '{' and '['. An empty object or
			// array stays compact, as json.Indent leaves it.
			if i+1 < len(src) && src[i+1] == c+2 {
				i++
				continue
			}
			depth++
			dst = newline(append(dst, src[start:i+1]...), depth)
			start = i + 1
		case '}', ']':
			depth--
			dst = newline(append(dst, src[start:i]...), depth)
			start = i
		case ',':
			dst = newline(append(dst, src[start:i+1]...), depth)
			start = i + 1
		case ':':
			dst = append(append(dst, src[start:i+1]...), ' ')
			start = i + 1
		}
	}
	return append(dst, src[start:]...)
}

// stringEnd returns the index of the quote closing the string whose
// contents start at src[i] (len(src) if it is unterminated).
func stringEnd(src []byte, i int) int {
	for {
		q := bytes.IndexByte(src[i:], '"')
		if q < 0 {
			return len(src)
		}
		i += q
		// The quote is escaped iff an odd run of backslashes precedes it.
		bs := 0
		for j := i - 1; j >= 0 && src[j] == '\\'; j-- {
			bs++
		}
		if bs%2 == 0 {
			return i
		}
		i++
	}
}

// spaces is the indentation source: newline appends depth bytes of it.
const spaces = "                                                                "

func newline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > len(spaces); depth -= len(spaces) {
		dst = append(dst, spaces...)
	}
	return append(dst, spaces[:depth]...)
}
