// Package media implements the Media system content provider (paper
// §5.3): metadata for media files stored in a single base table called
// files, with images, audio_meta, and video defined as SQL views over
// it, and audio defined over three tables/views (audio_meta joined with
// artists and albums) — exactly the view hierarchy the COW proxy must
// manage (Figure 5).
//
// Beyond storage, Media has a scanner service that extracts metadata
// from files and creates thumbnails. Scans on behalf of a delegate (or
// volatile scans requested by an initiator) store metadata in the
// initiator's volatile state and write the thumbnail into its volatile
// tmp branch, keeping public state clean.
//
// URIs:
//
//	content://media/files[/<id>]
//	content://media/images[/<id>]   content://media/audio[/<id>]
//	content://media/audio_meta[/<id>]  content://media/video[/<id>]
//	content://media/tmp/files[...]  volatile views for initiators
package media

import (
	"fmt"
	"path"
	"strings"

	"maxoid/internal/binder"
	"maxoid/internal/cowproxy"
	"maxoid/internal/layout"
	"maxoid/internal/provider"
	"maxoid/internal/sqldb"
	"maxoid/internal/vfs"
)

// Authority is the provider's content authority.
const Authority = "media"

// FilesURI is the collection URI of the files base table.
const FilesURI = "content://" + Authority + "/files"

// Media types stored in files.media_type.
const (
	MediaTypeImage = 1
	MediaTypeAudio = 2
	MediaTypeVideo = 3
)

// ThumbnailDir is the client-visible thumbnail directory.
const ThumbnailDir = layout.ExtDir + "/DCIM/.thumbnails"

// ThumbnailSize is the size of generated thumbnails in bytes.
const ThumbnailSize = 4096

// Provider is the Media content provider.
type Provider struct {
	proxy *cowproxy.Proxy
	disk  *vfs.FS
}

// New creates the provider with its schema and view hierarchy.
func New(disk *vfs.FS) (*Provider, error) {
	return NewWithDB(sqldb.Open(), disk)
}

// NewWithDB creates the provider over an existing database — the
// durable-boot path, where core opens the database first so WAL
// recovery can replay into it. The schema DDL is idempotent against a
// recovered schema (RegisterUserView already is: CREATE VIEW IF NOT
// EXISTS).
func NewWithDB(db *sqldb.DB, disk *vfs.FS) (*Provider, error) {
	schema := []string{
		`CREATE TABLE IF NOT EXISTS files (
			_id INTEGER PRIMARY KEY,
			_data TEXT NOT NULL,
			media_type INTEGER NOT NULL,
			title TEXT,
			size INTEGER DEFAULT 0,
			date_added INTEGER DEFAULT 0,
			duration INTEGER DEFAULT 0,
			artist_id INTEGER,
			album_id INTEGER,
			mime_type TEXT
		)`,
		`CREATE TABLE IF NOT EXISTS artists (artist_id INTEGER PRIMARY KEY, artist TEXT)`,
		`CREATE TABLE IF NOT EXISTS albums (album_id INTEGER PRIMARY KEY, album TEXT)`,
		// The view hierarchy filters on media_type (often with a
		// recency bound), the audio join probes album/artist ids, and
		// the scanner deduplicates by path. These are exactly the
		// indexes the workload advisor derives from a recorded
		// gallery+scanner mix (cmd/maxoid-advisor).
		`CREATE INDEX IF NOT EXISTS files_by_type_date ON files (media_type, date_added)`,
		`CREATE INDEX IF NOT EXISTS files_by_album ON files (album_id) USING HASH`,
		`CREATE INDEX IF NOT EXISTS files_by_artist ON files (artist_id) USING HASH`,
		`CREATE INDEX IF NOT EXISTS files_by_path ON files (_data) USING HASH`,
	}
	for _, s := range schema {
		if _, err := db.Exec(s); err != nil {
			return nil, err
		}
	}
	proxy := cowproxy.New(db)
	for _, t := range []string{"files", "artists", "albums"} {
		if err := proxy.RegisterTable(t); err != nil {
			return nil, err
		}
	}
	// The view hierarchy from §5.3: images, audio_meta, and video are
	// selections over files; audio joins audio_meta with two tables.
	views := []struct{ name, sql string }{
		{"images", fmt.Sprintf("SELECT _id, _data, title, size, date_added, mime_type FROM files WHERE media_type = %d", MediaTypeImage)},
		{"audio_meta", fmt.Sprintf("SELECT _id, _data, title, size, date_added, duration, artist_id, album_id FROM files WHERE media_type = %d", MediaTypeAudio)},
		{"video", fmt.Sprintf("SELECT _id, _data, title, size, date_added, duration FROM files WHERE media_type = %d", MediaTypeVideo)},
		{"audio", "SELECT audio_meta._id AS _id, audio_meta._data AS _data, audio_meta.title AS title, audio_meta.duration AS duration, artists.artist AS artist, albums.album AS album " +
			"FROM audio_meta LEFT OUTER JOIN artists ON audio_meta.artist_id = artists.artist_id LEFT OUTER JOIN albums ON audio_meta.album_id = albums.album_id"},
	}
	for _, v := range views {
		if err := proxy.RegisterUserView(v.name, v.sql); err != nil {
			return nil, fmt.Errorf("media: view %s: %w", v.name, err)
		}
	}
	return &Provider{proxy: proxy, disk: disk}, nil
}

// Authority implements provider.Provider.
func (p *Provider) Authority() string { return Authority }

// Proxy exposes the COW proxy for Maxoid administrative operations.
func (p *Provider) Proxy() *cowproxy.Proxy { return p.proxy }

// TableRoutes implements provider.Reflector. The base tables carry
// real catalog schemas; the user views (images/audio/...) are routed
// under their own names — their column shape comes from the view SQL,
// so the gateway reports them as views without column details.
func (p *Provider) TableRoutes() []provider.TableRoute {
	return []provider.TableRoute{
		{Path: "files", Table: "files"},
		{Path: "artists", Table: "artists"},
		{Path: "albums", Table: "albums"},
		{Path: "images", Table: "images"},
		{Path: "audio_meta", Table: "audio_meta"},
		{Path: "video", Table: "video"},
		{Path: "audio", Table: "audio"},
	}
}

// tableFor maps URI paths to tables/views.
func tableFor(uri provider.URI) (string, error) {
	segs := uri.Path()
	if len(segs) != 1 {
		return "", fmt.Errorf("%w: %s", provider.ErrBadURI, uri)
	}
	switch segs[0] {
	case "files", "artists", "albums", "images", "audio_meta", "video", "audio":
		return segs[0], nil
	}
	return "", fmt.Errorf("%w: %s", provider.ErrBadURI, uri)
}

// mutationTable maps view URIs onto their base table for writes: like
// the real Media provider, updates addressed to images/audio/video URIs
// operate on rows of the files table (SQL views are read-only; the COW
// proxy's INSTEAD OF triggers exist only for table COW views).
func mutationTable(tbl string) string {
	switch tbl {
	case "images", "audio_meta", "video", "audio":
		return "files"
	}
	return tbl
}

// Insert adds a row to the caller's view. Initiators may assert
// isVolatile to create volatile records.
func (p *Provider) Insert(c provider.Caller, uri provider.URI, values provider.Values) (provider.URI, error) {
	tbl, err := tableFor(uri)
	if err != nil {
		return provider.URI{}, err
	}
	return provider.Insert(p.proxy, c, uri, mutationTable(tbl), values)
}

// Update updates rows in the caller's view.
func (p *Provider) Update(c provider.Caller, uri provider.URI, values provider.Values, where string, args ...sqldb.Value) (int64, error) {
	tbl, err := tableFor(uri)
	if err != nil {
		return 0, err
	}
	return provider.Update(p.proxy, c, uri, mutationTable(tbl), values, where, args...)
}

// Delete deletes rows in the caller's view.
func (p *Provider) Delete(c provider.Caller, uri provider.URI, where string, args ...sqldb.Value) (int64, error) {
	tbl, err := tableFor(uri)
	if err != nil {
		return 0, err
	}
	return provider.Delete(p.proxy, c, uri, mutationTable(tbl), where, args...)
}

// Query returns rows from the caller's view.
func (p *Provider) Query(c provider.Caller, uri provider.URI, columns []string, where string, orderBy string, args ...sqldb.Value) (*sqldb.Rows, error) {
	tbl, err := tableFor(uri)
	if err != nil {
		return nil, err
	}
	return provider.Query(p.proxy, c, uri, tbl, columns, where, orderBy, args...)
}

// mediaTypeForExt derives the media type from a file extension.
func mediaTypeForExt(name string) (int64, string) {
	switch strings.ToLower(path.Ext(name)) {
	case ".jpg", ".jpeg", ".png", ".gif":
		return MediaTypeImage, "image/" + strings.TrimPrefix(strings.ToLower(path.Ext(name)), ".")
	case ".mp3", ".ogg", ".flac":
		return MediaTypeAudio, "audio/" + strings.TrimPrefix(strings.ToLower(path.Ext(name)), ".")
	case ".mp4", ".mkv", ".avi":
		return MediaTypeVideo, "video/" + strings.TrimPrefix(strings.ToLower(path.Ext(name)), ".")
	}
	return MediaTypeImage, "application/octet-stream"
}

// ScanFile extracts metadata from a media file at a client-visible
// external path, stores it in the appropriate view of the files table,
// and writes a thumbnail. The caller's context decides where everything
// lands: scans for initiators go to public state (unless volatile is
// requested), scans for delegates go to the initiator's volatile state
// with the thumbnail in the volatile tmp branch.
func (p *Provider) ScanFile(c provider.Caller, clientPath string, dateAdded int64, volatile bool) (int64, error) {
	origin := provider.ViewOf(c, volatile).Initiator

	backing := locate(origin, clientPath)
	data, err := vfs.ReadFile(p.disk, vfs.Root, backing)
	if err != nil {
		// Fall back to the public branch for files a delegate reads
		// from Pub(all) without having modified them.
		if origin != "" {
			backing = layout.PublicBacking(clientPath)
			data, err = vfs.ReadFile(p.disk, vfs.Root, backing)
		}
		if err != nil {
			return 0, fmt.Errorf("media: scan %s: %w", clientPath, err)
		}
	}

	mediaType, mime := mediaTypeForExt(clientPath)
	row := map[string]sqldb.Value{
		"_data":      clientPath,
		"media_type": mediaType,
		"title":      strings.TrimSuffix(path.Base(clientPath), path.Ext(clientPath)),
		"size":       int64(len(data)),
		"date_added": dateAdded,
		"mime_type":  mime,
	}
	id, err := p.proxy.For(origin).Insert("files", row)
	if err != nil {
		return 0, err
	}

	// Thumbnail generation: a deterministic downsample of the content.
	thumb := makeThumbnail(data)
	thumbClient := path.Join(ThumbnailDir, fmt.Sprintf("%d.jpg", id))
	thumbBacking := locate(origin, thumbClient)
	if err := p.disk.MkdirAll(vfs.Root, path.Dir(thumbBacking), 0o777); err != nil {
		return 0, err
	}
	if err := vfs.WriteFile(p.disk, vfs.Root, thumbBacking, thumb, 0o666); err != nil {
		return 0, err
	}
	return id, nil
}

// locate maps a client path to its backing path for the given origin.
func locate(origin, clientPath string) string {
	if origin == "" {
		return layout.PublicBacking(clientPath)
	}
	return layout.VolatileBacking(origin, clientPath)
}

// makeThumbnail produces a fixed-size digest of the content, standing in
// for image downscaling: same I/O shape, deterministic output.
func makeThumbnail(data []byte) []byte {
	thumb := make([]byte, ThumbnailSize)
	if len(data) == 0 {
		return thumb
	}
	stride := len(data)/ThumbnailSize + 1
	for i := range thumb {
		idx := (i * stride) % len(data)
		thumb[i] = data[idx]
	}
	return thumb
}

// OnCall handles the scanner's Binder transaction:
//
//	code "scan": {"path": string, "date": int64, "volatile": bool}
//	  -> {"id": int64}
func (p *Provider) OnCall(from provider.Caller, code string, data binder.Parcel) (binder.Parcel, error) {
	switch code {
	case "scan":
		id, err := p.ScanFile(from, data.String("path"), data.Int("date"), data.Bool("volatile"))
		if err != nil {
			return nil, err
		}
		return binder.Parcel{"id": id}, nil
	}
	return nil, fmt.Errorf("%w: %s", provider.ErrNotSupported, code)
}
