// Package userdict implements the User Dictionary system content
// provider, the paper's simplest ported provider (§5.3): a purely
// passive storage service mapping URIs to rows of the words table.
//
// URIs:
//
//	content://user_dictionary/words          all words
//	content://user_dictionary/words/<id>     one word
//	content://user_dictionary/tmp/words      the caller's volatile words
//	content://user_dictionary/tmp/words/<id> one volatile word
package userdict

import (
	"fmt"

	"maxoid/internal/cowproxy"
	"maxoid/internal/provider"
	"maxoid/internal/sqldb"
)

// Authority is the provider's content authority.
const Authority = "user_dictionary"

// WordsURI is the collection URI for words.
const WordsURI = "content://" + Authority + "/words"

// VolatileWordsURI addresses the caller's volatile words (initiators
// only; §5.1 "volatile URIs").
const VolatileWordsURI = "content://" + Authority + "/tmp/words"

// Provider is the User Dictionary content provider.
type Provider struct {
	proxy *cowproxy.Proxy
}

// New creates the provider with its backing database and COW proxy.
func New() (*Provider, error) {
	return NewWithDB(sqldb.Open())
}

// NewWithDB creates the provider over an existing database — the
// durable-boot path, where core opens the database first so WAL
// recovery can replay into it. The schema DDL is idempotent against a
// recovered schema.
func NewWithDB(db *sqldb.DB) (*Provider, error) {
	if _, err := db.Exec(`CREATE TABLE IF NOT EXISTS words (
		_id INTEGER PRIMARY KEY,
		word TEXT NOT NULL,
		frequency INTEGER DEFAULT 1,
		locale TEXT,
		appid INTEGER DEFAULT 0
	)`); err != nil {
		return nil, err
	}
	proxy := cowproxy.New(db)
	if err := proxy.RegisterTable("words"); err != nil {
		return nil, err
	}
	return &Provider{proxy: proxy}, nil
}

// Authority implements provider.Provider.
func (p *Provider) Authority() string { return Authority }

// Proxy exposes the COW proxy for Maxoid administrative operations
// (Clear-Vol).
func (p *Provider) Proxy() *cowproxy.Proxy { return p.proxy }

// TableRoutes implements provider.Reflector.
func (p *Provider) TableRoutes() []provider.TableRoute {
	return []provider.TableRoute{{Path: "words", Table: "words"}}
}

// validate checks the URI addresses the words table.
func (p *Provider) validate(uri provider.URI) error {
	path := uri.Path()
	if len(path) != 1 || path[0] != "words" {
		return fmt.Errorf("%w: %s", provider.ErrBadURI, uri)
	}
	return nil
}

// Insert adds a word. Initiators may assert isVolatile in the values to
// create the record in their own volatile state.
func (p *Provider) Insert(c provider.Caller, uri provider.URI, values provider.Values) (provider.URI, error) {
	if err := p.validate(uri); err != nil {
		return provider.URI{}, err
	}
	return provider.Insert(p.proxy, c, uri, "words", values)
}

// Update updates matching words in the caller's view.
func (p *Provider) Update(c provider.Caller, uri provider.URI, values provider.Values, where string, args ...sqldb.Value) (int64, error) {
	if err := p.validate(uri); err != nil {
		return 0, err
	}
	return provider.Update(p.proxy, c, uri, "words", values, where, args...)
}

// Delete deletes matching words in the caller's view.
func (p *Provider) Delete(c provider.Caller, uri provider.URI, where string, args ...sqldb.Value) (int64, error) {
	if err := p.validate(uri); err != nil {
		return 0, err
	}
	return provider.Delete(p.proxy, c, uri, "words", where, args...)
}

// Query returns matching words from the caller's view. Volatile URIs
// let an initiator read its volatile records (tmp URIs, §5.1).
func (p *Provider) Query(c provider.Caller, uri provider.URI, columns []string, where string, orderBy string, args ...sqldb.Value) (*sqldb.Rows, error) {
	if err := p.validate(uri); err != nil {
		return nil, err
	}
	return provider.Query(p.proxy, c, uri, "words", columns, where, orderBy, args...)
}
