package orchestra

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestCIWorkflowParses keeps .github/workflows/ci.yml loadable. In YAML a
// ": " inside a plain (unquoted) scalar starts a nested mapping, so one step
// name holding it makes the whole file fail to parse, and then no CI step
// runs at all. The standard library has no YAML parser; a line rule over the
// name: values is enough to catch it.
func TestCIWorkflowParses(t *testing.T) {
	src, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	nameLine := regexp.MustCompile(`^\s*(?:- )?name:\s+(.*)$`)
	names := 0
	for n, line := range strings.Split(string(src), "\n") {
		m := nameLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		names++
		v := m[1]
		if strings.HasPrefix(v, `"`) || strings.HasPrefix(v, `'`) {
			continue
		}
		if strings.Contains(v, ": ") || strings.HasSuffix(v, ":") {
			t.Errorf("ci.yml:%d: the name %q holds an unquoted \": \"; quote it", n+1, v)
		}
	}
	if names == 0 {
		t.Error("ci.yml has no name: lines; the rule checks nothing")
	}
}
