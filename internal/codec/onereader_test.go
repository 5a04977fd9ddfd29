package codec

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoHandRolledDecoders keeps a second reader of peer or store bytes from
// coming back: in the packages that decode such bytes, no non-test file may
// call encoding/binary's read side — the spelling every hand-rolled
// length-prefix reader so far has started from (PRs 18, 19, 22 and this one
// each found the same unchecked-length bug in a different copy). Reading goes
// through Reader; writing (binary.Append*, Put*) is not restricted.
func TestNoHandRolledDecoders(t *testing.T) {
	packages := []string{"engine", "cluster", "ring", "gossip", "vstore", "obs", "kvstore"}
	reads := []string{"binary.Uvarint(", "binary.Varint(",
		"binary.BigEndian.Uint16(", "binary.BigEndian.Uint32(", "binary.BigEndian.Uint64(",
		"binary.LittleEndian.Uint16(", "binary.LittleEndian.Uint32(", "binary.LittleEndian.Uint64(",
		"binary.ReadUvarint(", "binary.ReadVarint(", "binary.Read("}
	// allowed maps "package/file: source line" to the reason that line is not
	// a decoder. An entry covers that one line, not its file.
	allowed := map[string]string{
		"obs/trace.go: return TraceID(binary.BigEndian.Uint64(b[:]) ^ traceSeq.Add(1)<<32)": "NewTraceID folds eight random bytes it drew itself into an id; nothing a peer or the store supplied",
	}
	used := map[string]bool{}
	for _, pkg := range packages {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no source files for internal/%s (%v)", pkg, err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for n, line := range strings.Split(string(src), "\n") {
				for _, read := range reads {
					if !strings.Contains(line, read) {
						continue
					}
					key := pkg + "/" + filepath.Base(file) + ": " + strings.TrimSpace(line)
					if _, ok := allowed[key]; ok {
						used[key] = true
						continue
					}
					t.Errorf("internal/%s/%s:%d calls %s…): read peer and store bytes through codec.Reader\n\t%s",
						pkg, filepath.Base(file), n+1, read, strings.TrimSpace(line))
				}
			}
		}
	}
	for key, reason := range allowed {
		if !used[key] {
			t.Errorf("allow-list entry %q (%s) matches no line any more: delete it", key, reason)
		}
	}
}
