// Package workload implements the paper's synthetic load (§3.5): packing a
// Linux-kernel-like source directory with tar and a bzip2-style
// block-compressed format, verifying the archive with an md5sum against a
// reference value computed at installation, and — when a hash mismatches —
// recovering the archive block-by-block the way the paper used
// bzip2recover to find that "only a single one of the 396 bzip2
// compression blocks had been corrupted".
//
// Substitution note: Go's standard library decompresses bzip2 but does not
// compress it, so the package defines FBZ, a container of independently
// compressed DEFLATE blocks with per-block magic and checksums. FBZ keeps
// the properties the experiment depends on — fixed-size compression
// blocks, block-local corruption, block-level recoverability — while
// remaining pure stdlib.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// SourceFile is one file of the synthetic source tree.
type SourceFile struct {
	Path string
	Data []byte
}

// SourceTree is a deterministic, kernel-source-like directory tree. The
// same seed and size always produce byte-identical contents, which is what
// makes the reference md5 meaningful.
type SourceTree struct {
	files []SourceFile
	bytes int64
}

// Kernel-ish directory skeleton for generated paths.
var sourceDirs = []string{
	"arch/x86/kernel", "arch/x86/mm", "block", "crypto",
	"drivers/net", "drivers/scsi", "drivers/usb/core", "fs/ext3",
	"include/linux", "kernel", "lib", "mm", "net/ipv4", "net/core",
	"sound/pci", "scripts",
}

// C-flavoured vocabulary for generated file contents. Generated text
// compresses at roughly source-code ratios, which keeps the archive's
// block count realistic.
var sourceWords = strings.Fields(`
static inline int unsigned long struct void return if else for while
switch case break continue goto sizeof const volatile extern register
u8 u16 u32 u64 s32 dev buf len err ret flags lock irq page addr offset
skb net sock tcp udp inode dentry sb mutex spin list head next prev
init exit probe remove open close read write ioctl mmap poll kmalloc
kfree memset memcpy printk EXPORT_SYMBOL module_init module_exit
`)

// GenerateTree builds a synthetic source tree of approximately totalBytes
// across the given number of files.
func GenerateTree(seed string, files int, totalBytes int64) (*SourceTree, error) {
	if files <= 0 || totalBytes <= 0 {
		return nil, fmt.Errorf("workload: tree needs positive file count and size (got %d files, %d bytes)", files, totalBytes)
	}
	if int64(files) > totalBytes {
		return nil, fmt.Errorf("workload: more files (%d) than bytes (%d)", files, totalBytes)
	}
	h := int64(0)
	for _, c := range seed {
		h = h*131 + int64(c)
	}
	rng := rand.New(rand.NewSource(h))
	tree := &SourceTree{}
	perFile := totalBytes / int64(files)
	for i := 0; i < files; i++ {
		dir := sourceDirs[rng.Intn(len(sourceDirs))]
		name := fmt.Sprintf("%s/%s_%04d.c", dir, sourceWords[rng.Intn(len(sourceWords))], i)
		// Vary file sizes around the mean like real source files do.
		size := perFile/2 + rng.Int63n(perFile)
		if size < 16 {
			size = 16
		}
		data := generateCLike(rng, int(size))
		tree.files = append(tree.files, SourceFile{Path: name, Data: data})
		tree.bytes += int64(len(data))
	}
	sort.Slice(tree.files, func(i, j int) bool { return tree.files[i].Path < tree.files[j].Path })
	return tree, nil
}

// generateCLike emits pseudo-C text of roughly n bytes. Lines are appended
// straight into the result; the RNG draw order (the word-count test is
// redrawn on every iteration, the line kind after the words) is what keeps
// trees, and so every reference digest, stable.
func generateCLike(rng *rand.Rand, n int) []byte {
	b := make([]byte, 0, n+64)
	var words [8]string // 3+Intn(6) never admits a ninth word
	indent := 0
	for len(b) < n {
		w := 0
		for ; w < 3+rng.Intn(6); w++ {
			words[w] = sourceWords[rng.Intn(len(sourceWords))]
		}
		line := words[:w]
		switch rng.Intn(10) {
		case 0:
			b = appendLine(b, indent, "/* ", line, ' ', " */\n")
		case 1:
			if indent < 4 {
				b = appendLine(b, indent, "", line, ' ', " {\n")
				indent++
			}
		case 2:
			if indent > 0 {
				indent--
			}
			b = appendLine(b, indent, "", nil, 0, "}\n")
		default:
			b = appendLine(b, indent, "", line, '_', ";\n")
		}
	}
	return b
}

// appendLine appends indent tabs, prefix, words joined by sep, and suffix.
func appendLine(b []byte, indent int, prefix string, words []string, sep byte, suffix string) []byte {
	for i := 0; i < indent; i++ {
		b = append(b, '\t')
	}
	b = append(b, prefix...)
	for i, w := range words {
		if i > 0 {
			b = append(b, sep)
		}
		b = append(b, w...)
	}
	return append(b, suffix...)
}

// Files returns the tree's files, sorted by path.
func (t *SourceTree) Files() []SourceFile { return t.files }

// TotalBytes returns the tree's content size.
func (t *SourceTree) TotalBytes() int64 { return t.bytes }

// NumFiles returns the number of files.
func (t *SourceTree) NumFiles() int { return len(t.files) }
