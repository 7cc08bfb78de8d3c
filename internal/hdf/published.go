package hdf

// Published is what one Writer put on disk when it closed: the file's
// committed name, its size, its dataset count and its directory bytes
// exactly as written. Dir is the writer's own directory buffer, the entries
// CreateDataset appended behind the count Publish patched,
// capacity-capped. The writer's owner turns it into what a commit records
// (catalog.Record) where the file was published; the directory itself never
// leaves that process.
type Published struct {
	Name  string
	Size  int64
	Count int // the header's dataset count
	Dir   []byte
}

// Raw is the report as the directory it carries, for Walk.
func (p Published) Raw() RawDir {
	return RawDir{Name: p.Name, Size: p.Size, Count: p.Count, Bytes: p.Dir}
}
