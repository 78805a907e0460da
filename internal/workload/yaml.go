package workload

// A minimal YAML-subset reader for workload specs. The repo takes no
// third-party dependencies, so instead of a full YAML implementation this
// file parses the disciplined subset the spec schema needs:
//
//   - maps as "key: value" lines, nested by indentation (spaces only)
//   - lists as "- item" lines, including the "- key: value" map-item
//     shorthand with the remaining keys indented to align; the first key
//     may hold an inline value or a nested block
//   - inline maps {k: v, ...} and inline lists [a, b, ...]
//   - scalars: numbers (including exponents), booleans, bare and
//     single/double-quoted strings, durations like "150us"
//   - comments with '#' and blank lines anywhere
//
// Anchors, multi-document streams, flow folding and block scalars are out of
// scope and rejected with errors. The parser never panics on any input
// (fuzz-enforced); every error carries a line number.
//
// The Go spec structs are the schema: a struct decodes from a mapping whose
// keys are its exported field names in lower case, a slice from a list, and
// a scalar by the field's type. A new spec field is a new key with no
// decoder change.

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"breakband/internal/units"
)

// LoadSpec reads, parses and validates a workload spec file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %v", err)
	}
	s, err := ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %v", path, err)
	}
	return s, nil
}

// ParseSpec parses a YAML workload spec and validates it. It never panics;
// malformed input returns an error.
func ParseSpec(data []byte) (*Spec, error) {
	tree, err := parseYAML(string(data))
	if err != nil {
		return nil, err
	}
	s := &Spec{}
	if err := decode(tree, reflect.ValueOf(s).Elem(), "spec"); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// ---------------------------------------------------------------------------
// Tree layer: indentation-structured text -> map[string]any / []any / scalar.

// scalar is a raw unparsed scalar with its source line for error reporting.
type scalar struct {
	text string
	line int
}

type yamlLine struct {
	indent int
	text   string
	num    int
}

func parseYAML(src string) (any, error) {
	lines, err := splitLines(src)
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("empty spec")
	}
	v, next, err := parseBlock(lines, 0, lines[0].indent)
	if err != nil {
		return nil, err
	}
	if next != len(lines) {
		return nil, fmt.Errorf("line %d: unexpected content %q (bad indentation?)", lines[next].num, lines[next].text)
	}
	return v, nil
}

func splitLines(src string) ([]yamlLine, error) {
	var out []yamlLine
	for num, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		trimmed := strings.TrimRight(line, " \r")
		body := strings.TrimLeft(trimmed, " ")
		if body == "" {
			continue
		}
		indent := len(trimmed) - len(body)
		if strings.ContainsRune(trimmed[:indent], '\t') || strings.HasPrefix(body, "\t") {
			return nil, fmt.Errorf("line %d: tabs are not allowed in indentation", num+1)
		}
		if body == "---" {
			if len(out) > 0 {
				return nil, fmt.Errorf("line %d: multi-document streams are not supported", num+1)
			}
			continue
		}
		out = append(out, yamlLine{indent: indent, text: body, num: num + 1})
	}
	return out, nil
}

// stripComment removes a trailing '# ...' comment that is not inside quotes.
func stripComment(line string) string {
	var quote byte
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '#' && (i == 0 || line[i-1] == ' ' || line[i-1] == '\t'):
			return line[:i]
		}
	}
	return line
}

// parseBlock parses the block starting at lines[i], whose entries sit at
// exactly the given indent. Returns the value and the index one past it.
func parseBlock(lines []yamlLine, i, indent int) (any, int, error) {
	if i >= len(lines) {
		return nil, i, fmt.Errorf("unexpected end of spec")
	}
	if lines[i].indent != indent {
		return nil, i, fmt.Errorf("line %d: unexpected indentation", lines[i].num)
	}
	if isListItem(lines[i].text) {
		return parseListBlock(lines, i, indent)
	}
	return parseMapBlock(lines, i, indent)
}

func isListItem(text string) bool {
	return text == "-" || strings.HasPrefix(text, "- ")
}

func parseListBlock(lines []yamlLine, i, indent int) (any, int, error) {
	var list []any
	for i < len(lines) && lines[i].indent == indent && isListItem(lines[i].text) {
		ln := lines[i]
		rest := strings.TrimPrefix(strings.TrimPrefix(ln.text, "-"), " ")
		if rest == "" {
			// "-" alone: the item is the nested block below.
			v, next, err := parseNested(lines, i+1, indent, ln.num)
			if err != nil {
				return nil, i, err
			}
			list = append(list, v)
			i = next
			continue
		}
		if _, _, ok := splitKey(rest); ok {
			// "- key: value" map-item shorthand: the item is a map whose
			// keys align under the first one (indent of '-' + 2), so the
			// item's line becomes that map's first entry.
			lines[i] = yamlLine{indent: indent + 2, text: rest, num: ln.num}
			item, next, err := parseMapBlock(lines, i, indent+2)
			if err != nil {
				return nil, i, err
			}
			list = append(list, item)
			i = next
			continue
		}
		v, err := parseValue(rest, ln.num)
		if err != nil {
			return nil, i, err
		}
		list = append(list, v)
		i++
	}
	if i < len(lines) && lines[i].indent > indent {
		return nil, i, fmt.Errorf("line %d: unexpected indentation", lines[i].num)
	}
	return list, i, nil
}

func parseMapBlock(lines []yamlLine, i, indent int) (any, int, error) {
	m := map[string]any{}
	for i < len(lines) && lines[i].indent == indent {
		ln := lines[i]
		if isListItem(ln.text) {
			return nil, i, fmt.Errorf("line %d: list item amid map entries", ln.num)
		}
		key, val, ok := splitKey(ln.text)
		if !ok {
			return nil, i, fmt.Errorf("line %d: expected \"key: value\", got %q", ln.num, ln.text)
		}
		if _, dup := m[key]; dup {
			return nil, i, fmt.Errorf("line %d: duplicate key %q", ln.num, key)
		}
		var v any
		var err error
		if val == "" {
			v, i, err = parseNested(lines, i+1, indent, ln.num)
		} else {
			v, err = parseValue(val, ln.num)
			i++
		}
		if err != nil {
			return nil, i, err
		}
		m[key] = v
	}
	if i < len(lines) && lines[i].indent > indent {
		return nil, i, fmt.Errorf("line %d: unexpected indentation", lines[i].num)
	}
	return m, i, nil
}

// parseNested parses the indented block following a "key:" (or "-") line at
// parentIndent.
func parseNested(lines []yamlLine, i, parentIndent, parentNum int) (any, int, error) {
	if i >= len(lines) || lines[i].indent <= parentIndent {
		return nil, i, fmt.Errorf("line %d: expected an indented block", parentNum)
	}
	return parseBlock(lines, i, lines[i].indent)
}

// splitKey splits "key: value" (or "key:") at the first top-level colon.
// Returns ok=false when the text is not a map entry.
func splitKey(text string) (key, val string, ok bool) {
	var quote byte
	depth := 0
	for i := 0; i < len(text); i++ {
		switch c := text[i]; {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '{' || c == '[':
			depth++
		case c == '}' || c == ']':
			depth--
		case c == ':' && depth == 0 && (i+1 == len(text) || text[i+1] == ' '):
			key = strings.TrimSpace(text[:i])
			if key == "" || strings.ContainsAny(key, "{}[],") {
				return "", "", false
			}
			return unquote(key), strings.TrimSpace(text[i+1:]), true
		}
	}
	return "", "", false
}

// parseValue parses an inline value: scalar, {map} or [list].
func parseValue(text string, num int) (any, error) {
	switch {
	case strings.HasPrefix(text, "{"):
		if !strings.HasSuffix(text, "}") {
			return nil, fmt.Errorf("line %d: unterminated inline map %q", num, text)
		}
		return parseInlineMap(text[1:len(text)-1], num)
	case strings.HasPrefix(text, "["):
		if !strings.HasSuffix(text, "]") {
			return nil, fmt.Errorf("line %d: unterminated inline list %q", num, text)
		}
		return parseInlineList(text[1:len(text)-1], num)
	case strings.HasPrefix(text, "&") || strings.HasPrefix(text, "*") || strings.HasPrefix(text, "|") || strings.HasPrefix(text, ">"):
		return nil, fmt.Errorf("line %d: anchors and block scalars are not supported (%q)", num, text)
	default:
		return scalar{text: unquote(text), line: num}, nil
	}
}

func parseInlineMap(body string, num int) (any, error) {
	m := map[string]any{}
	for _, part := range splitTop(body) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := splitKey(part)
		if !ok || val == "" {
			return nil, fmt.Errorf("line %d: expected \"key: value\" in inline map, got %q", num, part)
		}
		if _, dup := m[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate key %q", num, key)
		}
		v, err := parseValue(val, num)
		if err != nil {
			return nil, err
		}
		m[key] = v
	}
	return m, nil
}

func parseInlineList(body string, num int) (any, error) {
	list := []any{}
	for _, part := range splitTop(body) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := parseValue(part, num)
		if err != nil {
			return nil, err
		}
		list = append(list, v)
	}
	return list, nil
}

// splitTop splits on commas outside quotes/brackets.
func splitTop(s string) []string {
	var parts []string
	var quote byte
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '{' || c == '[':
			depth++
		case c == '}' || c == ']':
			depth--
		case c == ',' && depth == 0:
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	return append(parts, s[start:])
}

func unquote(s string) string {
	if len(s) >= 2 {
		if (s[0] == '\'' && s[len(s)-1] == '\'') || (s[0] == '"' && s[len(s)-1] == '"') {
			return s[1 : len(s)-1]
		}
	}
	return s
}

// ---------------------------------------------------------------------------
// Decode layer: generic tree -> Spec, with strict unknown-key checking.

func errAt(path, format string, args ...any) error {
	return fmt.Errorf("%s: %s", path, fmt.Sprintf(format, args...))
}

// specKeys maps every struct type reachable from Spec to its keys: its
// field names in lower case, by field index. Every spec field is exported.
// Filled once at start-up; read-only after.
var specKeys = map[reflect.Type][]string{}

var timeType = reflect.TypeOf(units.Time(0))

func init() { collectKeys(reflect.TypeOf(Spec{})) }

func collectKeys(t reflect.Type) {
	switch t.Kind() {
	case reflect.Slice:
		collectKeys(t.Elem())
	case reflect.Struct:
		keys := make([]string, t.NumField())
		for i := range keys {
			keys[i] = strings.ToLower(t.Field(i).Name)
			collectKeys(t.Field(i).Type)
		}
		specKeys[t] = keys
	}
}

// decode stores the tree value v into dst, naming path in errors. Unknown
// keys are errors; an absent key leaves its field at the zero value.
func decode(v any, dst reflect.Value, path string) error {
	switch dst.Kind() {
	case reflect.Struct:
		m, ok := v.(map[string]any)
		if !ok {
			return errAt(path, "expected a mapping")
		}
		keys := specKeys[dst.Type()]
		for k := range m {
			if !slices.Contains(keys, k) {
				return errAt(path, "unknown key %q (allowed: %s)", k, strings.Join(keys, ", "))
			}
		}
		for i, k := range keys {
			if e, ok := m[k]; ok {
				if err := decode(e, dst.Field(i), path+"."+k); err != nil {
					return err
				}
			}
		}
		return nil
	case reflect.Slice:
		l, ok := v.([]any)
		if !ok {
			return errAt(path, "expected a list")
		}
		out := reflect.MakeSlice(dst.Type(), len(l), len(l))
		for i, e := range l {
			if err := decode(e, out.Index(i), fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
		dst.Set(out)
		return nil
	}
	s, ok := v.(scalar)
	if !ok {
		return errAt(path, "expected a scalar value")
	}
	switch {
	case dst.Type() == timeType:
		d, err := parseTime(s.text)
		if err != nil {
			return errAt(path, "line %d: %v", s.line, err)
		}
		dst.SetInt(int64(d))
	case dst.Kind() == reflect.String:
		dst.SetString(s.text)
	case dst.CanInt():
		n, err := strconv.ParseInt(s.text, 10, dst.Type().Bits())
		if err != nil {
			return errAt(path, "line %d: %q is not an integer", s.line, s.text)
		}
		dst.SetInt(n)
	case dst.CanUint():
		n, err := strconv.ParseUint(s.text, 10, dst.Type().Bits())
		if err != nil {
			return errAt(path, "line %d: %q is not an unsigned integer", s.line, s.text)
		}
		dst.SetUint(n)
	case dst.CanFloat():
		f, err := strconv.ParseFloat(s.text, dst.Type().Bits())
		if err != nil || math.IsNaN(f) {
			return errAt(path, "line %d: %q is not a number", s.line, s.text)
		}
		dst.SetFloat(f)
	default:
		panic(fmt.Sprintf("workload: spec field %s has type %s, which no scalar decodes to", path, dst.Type()))
	}
	return nil
}

// parseTime parses a duration scalar: a float with a unit suffix (ps, ns,
// us, ms, s), or the bare "0".
func parseTime(s string) (units.Time, error) {
	if s == "0" {
		return 0, nil
	}
	unit := units.Time(0)
	var num string
	switch {
	case strings.HasSuffix(s, "ps"):
		unit, num = units.Picosecond, s[:len(s)-2]
	case strings.HasSuffix(s, "ns"):
		unit, num = units.Nanosecond, s[:len(s)-2]
	case strings.HasSuffix(s, "us"):
		unit, num = units.Microsecond, s[:len(s)-2]
	case strings.HasSuffix(s, "ms"):
		unit, num = units.Millisecond, s[:len(s)-2]
	case strings.HasSuffix(s, "s"):
		unit, num = units.Second, s[:len(s)-1]
	default:
		return 0, fmt.Errorf("duration %q needs a unit suffix (ps, ns, us, ms or s)", s)
	}
	f, err := strconv.ParseFloat(num, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("duration %q is not a number with a unit", s)
	}
	ps := f * float64(unit)
	if ps > float64(math.MaxInt64) || ps < float64(math.MinInt64) {
		return 0, fmt.Errorf("duration %q overflows the picosecond clock", s)
	}
	return units.Time(math.Round(ps)), nil
}
