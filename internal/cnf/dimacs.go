package cnf

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"neuroselect/internal/faultpoint"
)

// ParseDIMACS reads a CNF formula in DIMACS format from r: it reads r to
// the end and parses the bytes with Parse.
func ParseDIMACS(r io.Reader) (*Formula, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("cnf: read: %w", err)
	}
	return Parse(b)
}

// ParseDIMACSString parses a DIMACS formula held in a string.
func ParseDIMACSString(s string) (*Formula, error) {
	return Parse([]byte(s))
}

// Parse reads a CNF formula in DIMACS format. It tolerates comment lines
// anywhere, a missing or inconsistent header (the declared counts are
// checked loosely: a formula may use fewer variables or clauses than
// declared, never more clauses), and clauses spanning multiple lines.
// Tokens are separated by Unicode whitespace, as strings.Fields splits
// them, and a literal naming a variable above MaxVarIndex is an error.
//
// One pass scans b into a single literal array, and every clause is a
// three-index slice of it: its capacity equals its length, so appending
// to one clause reallocates it instead of overwriting the next.
func Parse(b []byte) (*Formula, error) {
	if err := faultpoint.Hit(faultpoint.DimacsParse); err != nil {
		return nil, fmt.Errorf("cnf: %w", err)
	}
	p := parser{
		// Capacity hints, exact for WriteDIMACS output: one literal per
		// space and one clause per line. Other layouts grow by append.
		lits:            make([]Lit, 0, bytes.Count(b, []byte{' '})+1),
		clauses:         make([]Clause, 0, bytes.Count(b, []byte{'\n'})+1),
		declaredVars:    -1,
		declaredClauses: -1,
	}
	for lineNo := 1; len(b) > 0; lineNo++ {
		line := b
		if i := bytes.IndexByte(b, '\n'); i >= 0 {
			line, b = b[:i], b[i+1:]
		} else {
			b = nil
		}
		if err := p.line(lineNo, line); err != nil {
			return nil, err
		}
	}
	if len(p.lits) > p.start {
		// Final clause without terminating 0; accept it.
		p.closeClause()
	}
	// An append may have moved the literal array after earlier clauses were
	// cut from it, so carve every clause again from the final array.
	off := 0
	for i, c := range p.clauses {
		if len(c) > 0 {
			end := off + len(c)
			p.clauses[i] = p.lits[off:end:end]
			off = end
		}
	}
	if len(p.clauses) == 0 {
		p.clauses = nil // as New leaves a formula without clauses
	}
	f := &Formula{NumVars: max(p.maxVar, p.declaredVars), Clauses: p.clauses}
	if p.declaredClauses >= 0 && len(f.Clauses) > p.declaredClauses {
		return nil, fmt.Errorf("cnf: %d clauses parsed but header declares %d", len(f.Clauses), p.declaredClauses)
	}
	return f, nil
}

// parser is Parse's state between lines: the literals read so far, the
// clauses cut from them, and where the open clause starts.
type parser struct {
	lits                          []Lit
	clauses                       []Clause
	start                         int // index in lits of the open clause's first literal
	maxVar                        int
	declaredVars, declaredClauses int
}

// line parses one line, without its newline. Comment lines start with c
// or %, and a problem line with p.
func (p *parser) line(lineNo int, line []byte) error {
	i := skipSpace(line, 0)
	switch {
	case i == len(line) || line[i] == 'c' || line[i] == '%':
		return nil
	case line[i] == 'p' || !isASCII(line[i:]):
		return p.fieldsLine(lineNo, line)
	}
	for i < len(line) {
		tok := i
		neg := line[i] == '-'
		if neg || line[i] == '+' {
			i++
		}
		digits := i
		var n int64
		for ; i < len(line) && '0' <= line[i] && line[i] <= '9' && n <= MaxVarIndex; i++ {
			n = n*10 + int64(line[i]-'0')
		}
		if i == digits || n > MaxVarIndex || i < len(line) && !isSpace(line[i]) {
			// Not a plain in-range integer: token reports the error with
			// strconv.Atoi's own text.
			for i < len(line) && !isSpace(line[i]) {
				i++
			}
			if err := p.token(lineNo, string(line[tok:i])); err != nil {
				return err
			}
		} else if neg {
			p.add(Lit(-n))
		} else {
			p.add(Lit(n))
		}
		i = skipSpace(line, i)
	}
	return nil
}

// fieldsLine parses a problem line, or a line whose bytes >= 0x80 may
// encode Unicode whitespace, with strings.TrimSpace and strings.Fields.
func (p *parser) fieldsLine(lineNo int, raw []byte) error {
	line := strings.TrimSpace(string(raw))
	if line == "" || strings.HasPrefix(line, "c") || strings.HasPrefix(line, "%") {
		return nil
	}
	if !strings.HasPrefix(line, "p") {
		for _, tok := range strings.Fields(line) {
			if err := p.token(lineNo, tok); err != nil {
				return err
			}
		}
		return nil
	}
	fields := strings.Fields(line)
	if len(fields) != 4 || fields[1] != "cnf" {
		return fmt.Errorf("cnf: line %d: malformed problem line %q", lineNo, line)
	}
	var err error
	p.declaredVars, err = strconv.Atoi(fields[2])
	if err != nil {
		return fmt.Errorf("cnf: line %d: bad variable count: %v", lineNo, err)
	}
	p.declaredClauses, err = strconv.Atoi(fields[3])
	if err != nil {
		return fmt.Errorf("cnf: line %d: bad clause count: %v", lineNo, err)
	}
	if p.declaredVars < 0 || p.declaredClauses < 0 {
		return fmt.Errorf("cnf: line %d: negative counts in problem line", lineNo)
	}
	return nil
}

// token parses one literal token with strconv.Atoi.
func (p *parser) token(lineNo int, tok string) error {
	n, err := strconv.Atoi(tok)
	if err != nil {
		return fmt.Errorf("cnf: line %d: bad literal %q: %v", lineNo, tok, err)
	}
	if n < -MaxVarIndex || n > MaxVarIndex {
		return fmt.Errorf("cnf: line %d: literal %s out of range: variables are numbered 1..%d", lineNo, tok, MaxVarIndex)
	}
	p.add(Lit(n))
	return nil
}

// add appends literal l to the open clause, or closes it when l is 0.
func (p *parser) add(l Lit) {
	if l == 0 {
		p.closeClause()
		return
	}
	p.lits = append(p.lits, l)
	p.maxVar = max(p.maxVar, l.Var())
}

// closeClause cuts the open clause from the literal array; an empty
// clause is nil.
func (p *parser) closeClause() {
	var c Clause
	if end := len(p.lits); end > p.start {
		c = p.lits[p.start:end:end]
		p.start = end
	}
	p.clauses = append(p.clauses, c)
}

// isSpace reports whether c is ASCII whitespace; '\n' never occurs inside
// a line.
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f'
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

// isASCII reports whether every byte of b is below 0x80.
func isASCII(b []byte) bool {
	for _, c := range b {
		if c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// WriteDIMACS writes the formula in DIMACS format, preceded by the supplied
// comment lines (each written as a "c " line).
func WriteDIMACS(w io.Writer, f *Formula, comments ...string) error {
	bw := bufio.NewWriter(w)
	for _, c := range comments {
		if _, err := fmt.Fprintf(bw, "c %s\n", c); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(bw, "p cnf %d %d\n", f.NumVars, len(f.Clauses)); err != nil {
		return err
	}
	for _, cl := range f.Clauses {
		for _, l := range cl {
			if _, err := fmt.Fprintf(bw, "%d ", int32(l)); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString("0\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DIMACSString renders the formula as a DIMACS string.
func DIMACSString(f *Formula) string {
	var sb strings.Builder
	_ = WriteDIMACS(&sb, f)
	return sb.String()
}
