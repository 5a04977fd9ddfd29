package orchestra

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIWorkflowParses keeps .github/workflows/ci.yml loadable and its
// steps pointed at code that exists. In YAML a ": " inside a plain
// (unquoted) scalar starts a nested mapping, so one step name holding it
// makes the whole file fail to parse, and then no CI step runs at all. The
// standard library has no YAML parser; a line rule over the name: values
// is enough to catch it. A run: command that names a ./… package directory
// the tree no longer has fails only once CI runs it, so every such path
// (relative to a -C directory when the command names one) must exist.
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

	paths := 0
	sep := regexp.MustCompile(`&&|\|\|?|;|\n`) // between the commands of one run: value
	for _, run := range runCommands(string(src)) {
		for _, cmd := range sep.Split(run.text, -1) {
			fields := strings.Fields(cmd)
			dir := "."
			for i, f := range fields {
				if f == "-C" && i+1 < len(fields) {
					dir = fields[i+1]
				}
			}
			for _, f := range fields {
				if !strings.HasPrefix(f, "./") {
					continue
				}
				paths++
				p := filepath.Join(dir, strings.TrimSuffix(f, "..."))
				if st, err := os.Stat(p); err != nil || !st.IsDir() {
					t.Errorf("ci.yml:%d: %q names %s, which is not a directory of this tree", run.line, f, p)
				}
			}
		}
	}
	if paths == 0 {
		t.Error("ci.yml's run: commands name no ./ package; the rule checks nothing")
	}
}

// ciRun is one run: value of a workflow file, a block scalar's lines
// joined, with the line its key is on.
type ciRun struct {
	line int
	text string
}

// runCommands returns the workflow's run: values. A block scalar (run: |)
// holds every following line indented deeper than its key.
func runCommands(src string) []ciRun {
	runLine := regexp.MustCompile(`^(\s*)(?:- )?run:\s*(.*)$`)
	var runs []ciRun
	block := -1 // indent of the open block scalar's key, or -1
	for n, line := range strings.Split(src, "\n") {
		if block >= 0 {
			if indent := len(line) - len(strings.TrimLeft(line, " ")); strings.TrimSpace(line) == "" || indent > block {
				runs[len(runs)-1].text += "\n" + line
				continue
			}
			block = -1
		}
		m := runLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		runs = append(runs, ciRun{line: n + 1})
		if v := m[2]; strings.HasPrefix(v, "|") || strings.HasPrefix(v, ">") {
			block = len(m[1])
		} else {
			runs[len(runs)-1].text = v
		}
	}
	return runs
}
