// Package pager implements Mach's memory managers: the inode pager that
// backs memory-mapped files and default pageout on a 4.3bsd filesystem
// ("the current inode pager utilizes 4.3bsd UNIX file systems and
// eliminates the traditional Berkeley UNIX need for separate paging
// partitions", §3.3), and the external-pager message protocol of Tables
// 3-1 and 3-2 that lets an ordinary user task manage a memory object.
package pager

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"machvm/internal/core"
	"machvm/internal/unixfs"
)

// InodePager backs memory objects with files: a page fault on a mapped
// file becomes a direct disk read into the faulting page, and pageout
// becomes a file write. Because the data lives in the object's physical
// pages (retained by the object cache after the last unmap), rereading a
// hot file costs no disk traffic — the behaviour Table 7-1's second-read
// rows measure.
type InodePager struct {
	fs *unixfs.FS

	mu      sync.Mutex
	backing map[*core.Object]*unixfs.Inode

	reads, writes atomic.Uint64
}

// NewInodePager creates an inode pager over the filesystem.
func NewInodePager(fs *unixfs.FS) *InodePager {
	return &InodePager{fs: fs, backing: make(map[*core.Object]*unixfs.Inode)}
}

// Name implements core.Pager.
func (ip *InodePager) Name() string { return "inode-pager" }

// NewFileObject creates a memory object backed by the named file; mapping
// it into a task gives a memory-mapped file. The object persists in the
// object cache after its last unmapping (pager_cache semantics: text
// segments and hot files stay warm).
func (ip *InodePager) NewFileObject(k *core.Kernel, name string) (*core.Object, error) {
	ino, err := ip.fs.Open(name)
	if err != nil {
		return nil, err
	}
	obj := k.NewObject(ino.Size(), ip, "file:"+name)
	ip.mu.Lock()
	ip.backing[obj] = ino
	ip.mu.Unlock()
	obj.SetCanPersist(true)
	return obj, nil
}

// Bind attaches an existing object to a file (used by the default pager
// path, where the object came first).
func (ip *InodePager) Bind(obj *core.Object, ino *unixfs.Inode) {
	ip.mu.Lock()
	ip.backing[obj] = ino
	ip.mu.Unlock()
}

func (ip *InodePager) inode(obj *core.Object) *unixfs.Inode {
	ip.mu.Lock()
	defer ip.mu.Unlock()
	return ip.backing[obj]
}

// Init implements core.Pager (pager_init).
func (ip *InodePager) Init(obj *core.Object) {}

// DataRequest implements core.Pager (pager_data_request): read the file
// block(s) for the page straight from disk.
func (ip *InodePager) DataRequest(ctx context.Context, obj *core.Object, offset uint64, length int) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ino := ip.inode(obj)
	if ino == nil {
		return nil, core.ErrDataUnavailable
	}
	if offset >= ino.Size() {
		return nil, core.ErrDataUnavailable
	}
	buf := make([]byte, length)
	n, err := ino.ReadAt(buf, offset)
	if err != nil || n == 0 {
		return nil, core.ErrDataUnavailable
	}
	ip.reads.Add(1)
	return buf, nil
}

// DataWrite implements core.Pager (pager_data_write): pageout goes to the
// file.
func (ip *InodePager) DataWrite(ctx context.Context, obj *core.Object, offset uint64, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ino := ip.inode(obj)
	if ino == nil {
		// No backing file: nowhere to put the data.
		return fmt.Errorf("inode-pager: object %q has no backing inode", obj.Name())
	}
	end := offset + uint64(len(data))
	if sz := ino.Size(); end > sz {
		// Don't grow the file past its logical size with page tail.
		if offset >= sz {
			return nil
		}
		data = data[:sz-offset]
	}
	if err := ino.WriteAt(data, offset); err != nil {
		return err
	}
	ip.writes.Add(1)
	return nil
}

// Terminate implements core.Pager.
func (ip *InodePager) Terminate(obj *core.Object) {
	ip.mu.Lock()
	delete(ip.backing, obj)
	ip.mu.Unlock()
}

// Traffic returns pagein/pageout counts through this pager.
func (ip *InodePager) Traffic() (reads, writes uint64) {
	return ip.reads.Load(), ip.writes.Load()
}

// SwapPager is the default pager built on filesystem swap files: internal
// memory paged out lands in per-object swap files on the 4.3bsd
// filesystem, eliminating the need for separate paging partitions.
//
// A swap file is sparse — a later page can be written before an earlier
// one — so the pager records which byte ranges it actually received and
// answers only for those: a never-written page must fall through the
// shadow chain, not read back as the zeroes of a hole.
type SwapPager struct {
	fs *unixfs.FS

	mu    sync.Mutex
	files map[*core.Object]*swapFile
	seq   uint64
}

// swapFile is one object's swap file and the ranges written to it.
type swapFile struct {
	ino     *unixfs.Inode
	written []extent // sorted, disjoint, non-adjacent
}

// extent is a written byte range [lo, hi) of a swap file.
type extent struct{ lo, hi uint64 }

// NewSwapPager creates the default pager over the filesystem.
func NewSwapPager(fs *unixfs.FS) *SwapPager {
	return &SwapPager{fs: fs, files: make(map[*core.Object]*swapFile)}
}

// Name implements core.Pager.
func (sp *SwapPager) Name() string { return "default-inode-pager" }

// Init implements core.Pager.
func (sp *SwapPager) Init(obj *core.Object) {}

// DataRequest implements core.Pager: read back previously paged-out data.
// The reply covers the written run that starts at offset and stops at the
// first gap (a short read the kernel resolves page by page);
// ErrDataUnavailable when offset itself was never written.
func (sp *SwapPager) DataRequest(ctx context.Context, obj *core.Object, offset uint64, length int) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp.mu.Lock()
	f := sp.files[obj]
	var end uint64
	if f != nil {
		i := sort.Search(len(f.written), func(i int) bool { return f.written[i].hi > offset })
		if i < len(f.written) && f.written[i].lo <= offset {
			end = f.written[i].hi
		}
	}
	sp.mu.Unlock()
	if end == 0 {
		return nil, core.ErrDataUnavailable
	}
	buf := make([]byte, min(uint64(length), end-offset))
	if n, err := f.ino.ReadAt(buf, offset); err != nil || n == 0 {
		return nil, core.ErrDataUnavailable
	}
	return buf, nil
}

// DataWrite implements core.Pager: page out to the swap file.
func (sp *SwapPager) DataWrite(ctx context.Context, obj *core.Object, offset uint64, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sp.mu.Lock()
	f := sp.files[obj]
	if f == nil {
		sp.seq++
		ino, err := sp.fs.Create(fmt.Sprintf(".swap/%d", sp.seq), nil)
		if err != nil {
			sp.mu.Unlock()
			return fmt.Errorf("swap-pager: cannot create swap file for object %q: %w", obj.Name(), err)
		}
		f = &swapFile{ino: ino}
		sp.files[obj] = f
	}
	sp.mu.Unlock()
	if err := f.ino.WriteAt(data, offset); err != nil {
		return err
	}
	// Merge [offset, offset+len) into the written set once the bytes are
	// in the file, absorbing every extent it overlaps or touches.
	lo, hi := offset, offset+uint64(len(data))
	sp.mu.Lock()
	i := sort.Search(len(f.written), func(i int) bool { return f.written[i].hi >= lo })
	j := i
	for ; j < len(f.written) && f.written[j].lo <= hi; j++ {
		lo, hi = min(lo, f.written[j].lo), max(hi, f.written[j].hi)
	}
	f.written = slices.Replace(f.written, i, j, extent{lo, hi})
	sp.mu.Unlock()
	return nil
}

// Terminate implements core.Pager: release the swap file.
func (sp *SwapPager) Terminate(obj *core.Object) {
	sp.mu.Lock()
	f := sp.files[obj]
	delete(sp.files, obj)
	sp.mu.Unlock()
	if f != nil {
		_ = sp.fs.Remove(f.ino.Name())
	}
}
