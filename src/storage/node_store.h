#ifndef NATIX_STORAGE_NODE_STORE_H_
#define NATIX_STORAGE_NODE_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "base/statusor.h"
#include "storage/buffer_manager.h"
#include "storage/name_dictionary.h"
#include "storage/paged_file.h"
#include "storage/string_value_counters.h"

namespace natix::storage {

/// Stable identifier of a stored node: (page, slot). Never changes while
/// the document exists (records are not relocated).
struct NodeId {
  PageId page = kInvalidPage;
  uint16_t slot = 0;

  bool valid() const { return page != kInvalidPage; }
  friend bool operator==(const NodeId&, const NodeId&) = default;

  /// Packs into a single integer for hashing and register storage.
  uint64_t Pack() const {
    return (static_cast<uint64_t>(page) << 16) | slot;
  }
  static NodeId Unpack(uint64_t v) {
    return NodeId{static_cast<PageId>(v >> 16),
                  static_cast<uint16_t>(v & 0xFFFF)};
  }
};

inline constexpr NodeId kInvalidNodeId{};

/// Node kinds stored on pages. Matches the XPath 1.0 data model.
enum class StoredNodeKind : uint8_t {
  kDocument = 0,
  kElement = 1,
  kAttribute = 2,
  kText = 3,
  kComment = 4,
  kProcessingInstruction = 5
};

/// The navigation header of a stored node: everything the axis cursors
/// need, without touching the (possibly large) content bytes.
struct NodeHeader {
  StoredNodeKind kind = StoredNodeKind::kDocument;
  uint32_t name_id = kInvalidNameId;
  uint64_t order = 0;
  NodeId parent;
  NodeId first_child;
  NodeId last_child;
  NodeId next_sibling;
  NodeId prev_sibling;
  NodeId first_attr;
};

/// Decoded image of a stored node record.
struct NodeRecord {
  StoredNodeKind kind = StoredNodeKind::kDocument;
  /// Name dictionary id for elements, attributes and PI targets;
  /// kInvalidNameId otherwise.
  uint32_t name_id = kInvalidNameId;
  /// Document-order key, unique across all documents of one store.
  uint64_t order = 0;
  NodeId parent;
  NodeId first_child;
  /// Last child, maintained so reverse-document-order axes (preceding,
  /// preceding-sibling via deepest-last descent) run in O(1) per step.
  NodeId last_child;
  NodeId next_sibling;
  NodeId prev_sibling;
  /// Head of the attribute chain (elements only; attributes are linked
  /// through next_sibling among themselves).
  NodeId first_attr;
  /// True when the content lives in an overflow chunk chain.
  bool text_overflow = false;
  /// Inline content (attribute value, text, comment, PI data) — filled
  /// only when !text_overflow; otherwise use NodeStore::ReadContent.
  std::string inline_text;
};

/// A document registered in the store catalog.
struct DocumentInfo {
  std::string name;
  NodeId root;          // the document node
  uint64_t node_count = 0;
};

/// The persistent XML node store: slotted node pages behind a buffer
/// manager, a name dictionary, and a document catalog — the reimplementation
/// of the Natix storage layer the paper's physical algebra navigates
/// directly (Sec. 5.2.2).
class NodeStore {
 public:
  struct Options {
    /// Buffer pool size in frames (pages).
    size_t buffer_pages = 4096;
    /// Number of buffer-pool stripes (each with its own mutex, page
    /// table and clock hand).
    /// 1 reproduces the classic single-lock pool; concurrent read-only
    /// workloads want one stripe per expected thread or so. Must not
    /// exceed buffer_pages.
    size_t buffer_shards = 1;
  };

  /// Creates a new store at `path` (truncating any existing file).
  static StatusOr<std::unique_ptr<NodeStore>> Create(const std::string& path,
                                                     const Options& options);
  /// Creates an anonymous scratch store (tests/benchmarks/examples).
  static StatusOr<std::unique_ptr<NodeStore>> CreateTemp(
      const Options& options);
  /// Opens an existing store.
  static StatusOr<std::unique_ptr<NodeStore>> Open(const std::string& path,
                                                   const Options& options);

  NodeStore(const NodeStore&) = delete;
  NodeStore& operator=(const NodeStore&) = delete;

  // -- Node construction (used by DocumentLoader) ------------------------

  /// Appends a node record and returns its id. Links may be invalid and
  /// patched later through the SetLink calls.
  StatusOr<NodeId> AppendNode(const NodeRecord& record);

  enum class LinkField {
    kParent,
    kFirstChild,
    kLastChild,
    kNextSibling,
    kPrevSibling,
    kFirstAttr
  };
  /// Patches one link field of an existing record in place.
  Status SetLink(NodeId node, LinkField field, NodeId target);

  /// Next document-order key (monotone across the whole store).
  uint64_t NextOrderKey() { return next_order_key_++; }

  // -- Node access --------------------------------------------------------

  /// Decodes the record of `node`.
  Status ReadNode(NodeId node, NodeRecord* record) const;

  /// Decodes only the navigation header (no content copy).
  Status ReadHeader(NodeId node, NodeHeader* header) const;

  /// Returns the node's content (attribute value / text / comment / PI
  /// data), assembling overflow chains when necessary.
  StatusOr<std::string> ReadContent(NodeId node) const;

  /// XPath string-value: for elements/documents, the concatenation of all
  /// descendant text nodes; for other kinds the content itself.
  StatusOr<std::string> StringValue(NodeId node) const;

  // -- Catalog & dictionary ------------------------------------------------

  NameDictionary* names() { return &names_; }
  const NameDictionary* names() const { return &names_; }

  Status AddDocument(const DocumentInfo& info);
  /// Looks a document up by name; kNotFound when absent.
  StatusOr<DocumentInfo> FindDocument(std::string_view name) const;
  const std::vector<DocumentInfo>& documents() const { return documents_; }

  /// Persists catalog, dictionary, superblock and all dirty pages.
  Status Flush();

  BufferManager* buffer_manager() { return buffer_.get(); }
  const BufferManager* buffer_manager() const { return buffer_.get(); }

  /// Pinning through a const NodeStore (reads only fault pages in; the
  /// buffer manager's internal state is logically mutable).
  BufferManager* buffer_manager_for_accessor() const { return buffer_.get(); }

 private:
  NodeStore(std::unique_ptr<PagedFile> file, const Options& options);

  Status InitializeNew();
  Status LoadExisting();
  /// Serializes a metadata blob into a fresh chain of raw pages,
  /// returning the head page id.
  StatusOr<PageId> WriteBlobChain(const std::string& blob);
  StatusOr<std::string> ReadBlobChain(PageId head) const;
  /// Stores `content` into overflow chunks, returning the chain head.
  StatusOr<NodeId> WriteOverflow(std::string_view content);

  std::unique_ptr<PagedFile> file_;
  std::unique_ptr<BufferManager> buffer_;
  NameDictionary names_;
  std::vector<DocumentInfo> documents_;
  /// Page currently receiving node inserts.
  PageId fill_page_ = kInvalidPage;
  uint64_t next_order_key_ = 0;
};

/// A read-through accessor that keeps the most recently touched page
/// pinned, so chains of record reads along sibling/child links (the axis
/// cursor hot path, the string-value walk) skip the buffer-manager lookup
/// while they stay on one page.
class NodeAccessor {
 public:
  NodeAccessor() = default;
  explicit NodeAccessor(const NodeStore* store) : store_(store) {}

  Status ReadHeader(NodeId node, NodeHeader* header);

  /// Whether the XPath string-value of `node` equals `value`, decided in
  /// place on the buffer pages: each inline text piece is compared with
  /// the next slice of `value` and the walk stops at the first mismatch.
  /// Nothing is copied. Same result as StringValue(node) == value.
  StatusOr<bool> StringValueEquals(NodeId node, std::string_view value);

  /// Appends the node's own content (see NodeStore::ReadContent).
  Status AppendContent(NodeId node, std::string* out);
  /// Appends the node's XPath string-value (see NodeStore::StringValue).
  Status AppendStringValue(NodeId node, std::string* out);

 private:
  /// Pins the page of record `id` (re-fixing only when it is not the
  /// cached page) and returns the record's bytes, valid until the next
  /// call. Corruption when the record is shorter than `min_size`.
  Status FixRecord(NodeId id, size_t min_size, const uint8_t** record,
                   size_t* size);
  /// Feeds the content of the node record `record` to `visit` piece by
  /// piece: the inline bytes, or each overflow chunk. `visit` returns
  /// false to stop the walk; `*more` reports whether it did not. Overflow
  /// chunks re-pin, so `record` is invalid afterwards.
  template <typename Visit>
  Status VisitContent(const uint8_t* record, size_t size, Visit& visit,
                      bool* more);
  /// Feeds the string-value of `node` to `visit`: its own content, or
  /// for elements and documents the content of every descendant text
  /// node in document order.
  template <typename Visit>
  Status VisitStringValue(NodeId node, Visit& visit);

  const NodeStore* store_ = nullptr;
  PageHandle cached_;
};

}  // namespace natix::storage

#endif  // NATIX_STORAGE_NODE_STORE_H_
