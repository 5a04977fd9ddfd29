package codec

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoHandRolledDecoders keeps a second reader of peer or store bytes from
// coming back: no non-test file of a package under internal/ may call
// encoding/binary's read side — the spelling every hand-rolled
// length-prefix reader so far has started from (one after another the same
// unchecked-length bug turned up in a different copy, the last a tuple row
// whose string length wrapped an offset negative). Reading goes through
// Reader; writing (binary.Append*, Put*) is not restricted. Two packages are
// exempt: this one, which holds the reader, and wal, whose CRC-framed files
// only this process wrote and which has its own bounded decoder and fuzz
// targets.
func TestNoHandRolledDecoders(t *testing.T) {
	exempt := map[string]bool{"codec": true, "wal": true}
	reads := []string{"binary.Uvarint(", "binary.Varint(",
		"binary.BigEndian.Uint16(", "binary.BigEndian.Uint32(", "binary.BigEndian.Uint64(",
		"binary.LittleEndian.Uint16(", "binary.LittleEndian.Uint32(", "binary.LittleEndian.Uint64(",
		"binary.ReadUvarint(", "binary.ReadVarint(", "binary.Read("}
	// allowed maps "package/file: source line" to the reason that line is not
	// a decoder. An entry covers that one line, not its file.
	allowed := map[string]string{
		"obs/trace.go: return TraceID(binary.BigEndian.Uint64(b[:]) ^ traceSeq.Add(1)<<32)": "NewTraceID folds eight random bytes it drew itself into an id; nothing a peer or the store supplied",
		"keyspace/key.go: return binary.BigEndian.Uint64(k[Size-8:])":                       "Key.Uint64 reads a fixed-size Key value, an array whose length the type guarantees, not bytes off the wire",
		"keyspace/key.go: return binary.BigEndian.Uint64(k[:8])":                            "Key.Top64 reads a fixed-size Key value, an array whose length the type guarantees, not bytes off the wire",
		"keyspace/key.go: cur := rem<<32 | uint64(binary.BigEndian.Uint32(k[i:]))":          "Key.Div does long division over the limbs of a fixed-size Key; the loop bound is the array's size",
		"keyspace/key.go: cur := uint64(binary.BigEndian.Uint32(k[i:]))*n + carry":          "Key.MulUint64 multiplies the limbs of a fixed-size Key; the loop bound is the array's size",
	}
	dirs, err := os.ReadDir("..")
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, dir := range dirs {
		pkg := dir.Name()
		if !dir.IsDir() || exempt[pkg] {
			continue
		}
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
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
	// The packages that decode peer and store bytes must be among those
	// scanned: a moved directory must not pass by scanning nothing.
	for _, pkg := range []string{"engine", "cluster", "ring", "gossip", "vstore", "obs", "kvstore", "tuple", "server", "wire", "transport"} {
		if _, err := os.Stat(filepath.Join("..", pkg)); err != nil {
			t.Errorf("internal/%s is not scanned: %v", pkg, err)
		}
	}
	for key, reason := range allowed {
		if !used[key] {
			t.Errorf("allow-list entry %q (%s) matches no line any more: delete it", key, reason)
		}
	}
}
