package cnf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// referenceParse is the line-oriented DIMACS reader that Parse replaced
// (bufio.Scanner lines, strings.TrimSpace, strings.Fields, strconv.Atoi
// per token), kept as the differential reference for Parse. It differs
// from the replaced reader only in the literal range check, which both
// readers now share; it keeps the Scanner's 16 MiB line cap, which Parse
// dropped.
func referenceParse(r io.Reader) (*Formula, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)

	f := New(0)
	declaredVars, declaredClauses := -1, -1
	var cur Clause
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") || strings.HasPrefix(line, "%") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, fmt.Errorf("cnf: line %d: malformed problem line %q", lineNo, line)
			}
			var err error
			declaredVars, err = strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("cnf: line %d: bad variable count: %v", lineNo, err)
			}
			declaredClauses, err = strconv.Atoi(fields[3])
			if err != nil {
				return nil, fmt.Errorf("cnf: line %d: bad clause count: %v", lineNo, err)
			}
			if declaredVars < 0 || declaredClauses < 0 {
				return nil, fmt.Errorf("cnf: line %d: negative counts in problem line", lineNo)
			}
			continue
		}
		for _, tok := range strings.Fields(line) {
			n, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("cnf: line %d: bad literal %q: %v", lineNo, tok, err)
			}
			if n < -MaxVarIndex || n > MaxVarIndex {
				return nil, fmt.Errorf("cnf: line %d: literal %s out of range: variables are numbered 1..%d", lineNo, tok, MaxVarIndex)
			}
			if n == 0 {
				f.Clauses = append(f.Clauses, cur)
				if mv := cur.MaxVar(); mv > f.NumVars {
					f.NumVars = mv
				}
				cur = nil
				continue
			}
			cur = append(cur, Lit(n))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cnf: read: %w", err)
	}
	if len(cur) > 0 {
		// Final clause without terminating 0; accept it.
		f.Clauses = append(f.Clauses, cur)
		if mv := cur.MaxVar(); mv > f.NumVars {
			f.NumVars = mv
		}
	}
	if declaredVars > f.NumVars {
		f.NumVars = declaredVars
	}
	if declaredClauses >= 0 && len(f.Clauses) > declaredClauses {
		return nil, fmt.Errorf("cnf: %d clauses parsed but header declares %d", len(f.Clauses), declaredClauses)
	}
	return f, nil
}
