// Randomized stress tests of the storage layer: the buffer manager
// against a shadow model, and page-spanning documents navigated under
// heavy eviction.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <random>
#include <thread>
#include <vector>

#include "storage/buffer_manager.h"
#include "storage/document_loader.h"
#include "storage/node_store.h"
#include "storage/paged_file.h"
#include "storage/stored_node.h"

namespace natix::storage {
namespace {

TEST(BufferManagerStressTest, MatchesShadowModel) {
  auto file = PagedFile::OpenTemp();
  ASSERT_TRUE(file.ok());
  BufferManager bm(file->get(), 8);

  std::mt19937 rng(1234);
  std::map<PageId, uint8_t> shadow;  // page -> expected first byte
  std::vector<PageId> pages;

  for (int step = 0; step < 5000; ++step) {
    int action = std::uniform_int_distribution<int>(0, 9)(rng);
    if (pages.empty() || action == 0) {
      // Allocate a new page and stamp it.
      auto page = bm.NewPage();
      ASSERT_TRUE(page.ok());
      uint8_t stamp = static_cast<uint8_t>(rng());
      page->mutable_data()[0] = stamp;
      shadow[page->page_id()] = stamp;
      pages.push_back(page->page_id());
    } else if (action < 7) {
      // Read a random page and verify its stamp.
      PageId id = pages[std::uniform_int_distribution<size_t>(
          0, pages.size() - 1)(rng)];
      auto page = bm.FixPage(id);
      ASSERT_TRUE(page.ok());
      EXPECT_EQ(page->data()[0], shadow[id]) << "page " << id;
    } else {
      // Overwrite a random page's stamp.
      PageId id = pages[std::uniform_int_distribution<size_t>(
          0, pages.size() - 1)(rng)];
      auto page = bm.FixPage(id);
      ASSERT_TRUE(page.ok());
      uint8_t stamp = static_cast<uint8_t>(rng());
      page->mutable_data()[0] = stamp;
      shadow[id] = stamp;
    }
  }
  // Everything must be readable after a flush, straight from the file.
  ASSERT_TRUE(bm.FlushAll().ok());
  for (const auto& [id, stamp] : shadow) {
    uint8_t buffer[kPageSize];
    ASSERT_TRUE((*file)->ReadPage(id, buffer).ok());
    EXPECT_EQ(buffer[0], stamp) << "page " << id;
  }
  EXPECT_GT(bm.eviction_count(), 100u);  // the pool really was tiny
}

TEST(BufferManagerStressTest, ConcurrentPinsUnderConstantEviction) {
  // Four threads on a 2-shard, 16-frame pool over 56 pages: nearly every
  // fix races the clock hand of some other thread's fault. Each thread
  // stamps, verifies and releases its own pages (writers must not share
  // a page) and verifies shared read-only pages, so lock-free hits on
  // one frame race each other and the evictions. A held handle's bytes
  // must never change while other fixes evict around it, and the final
  // flush must match every thread's shadow map. tsan runs this too.
  constexpr int kThreads = 4;
  constexpr int kOwnPages = 12;
  constexpr int kSharedPages = 8;
  constexpr int kSteps = 4000;
  auto file = PagedFile::OpenTemp();
  ASSERT_TRUE(file.ok());
  BufferManager bm(file->get(), 16, 2);

  // A shared page carries its id in every 8-byte word.
  auto shared_ok = [](PageId id, const uint8_t* data) {
    for (size_t off = 0; off < kPageSize; off += 512) {
      uint64_t word;
      std::memcpy(&word, data + off, sizeof(word));
      if (word != id) return false;
    }
    return true;
  };
  std::vector<PageId> shared;
  for (int i = 0; i < kSharedPages; ++i) {
    auto page = bm.NewPage();
    ASSERT_TRUE(page.ok());
    const uint64_t word = page->page_id();
    for (size_t off = 0; off < kPageSize; off += 512) {
      std::memcpy(page->mutable_data() + off, &word, sizeof(word));
    }
    shared.push_back(page->page_id());
  }
  std::vector<std::vector<PageId>> own(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kOwnPages; ++i) {
      auto page = bm.NewPage();
      ASSERT_TRUE(page.ok());
      own[t].push_back(page->page_id());  // zero stamp
    }
  }

  // An own page holds its stamp at both ends of the page.
  auto stamp_of = [](const uint8_t* data, uint64_t* head, uint64_t* tail) {
    std::memcpy(head, data, sizeof(*head));
    std::memcpy(tail, data + kPageSize - sizeof(*tail), sizeof(*tail));
  };
  std::vector<std::map<PageId, uint64_t>> shadows(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(77 + t));
      std::map<PageId, uint64_t>& shadow = shadows[t];
      for (PageId id : own[t]) shadow[id] = 0;
      auto pick = [&rng](const std::vector<PageId>& ids) {
        return ids[std::uniform_int_distribution<size_t>(0, ids.size() -
                                                            1)(rng)];
      };
      auto verify_own = [&](PageId id, const PageHandle& page) {
        uint64_t head, tail;
        stamp_of(page.data(), &head, &tail);
        return head == shadow[id] && tail == shadow[id];
      };
      uint64_t next_stamp = static_cast<uint64_t>(t + 1) << 32;
      for (int step = 0; step < kSteps; ++step) {
        const int action = std::uniform_int_distribution<int>(0, 3)(rng);
        if (action == 0) {
          const PageId id = pick(shared);
          auto page = bm.FixPage(id);
          if (!page.ok() || !shared_ok(id, page->data())) ++failures;
        } else if (action == 1) {
          const PageId id = pick(own[t]);
          auto page = bm.FixPage(id);
          if (!page.ok() || !verify_own(id, *page)) {
            ++failures;
            continue;
          }
          const uint64_t stamp = ++next_stamp;
          std::memcpy(page->mutable_data(), &stamp, sizeof(stamp));
          std::memcpy(page->mutable_data() + kPageSize - sizeof(stamp),
                      &stamp, sizeof(stamp));
          shadow[id] = stamp;
        } else {
          // Hold one page while fixing three others, then check that
          // nothing under the held handle moved.
          const PageId held_id = pick(own[t]);
          auto held = bm.FixPage(held_id);
          if (!held.ok()) {
            ++failures;
            continue;
          }
          uint8_t before[64];
          std::memcpy(before, held->data(), sizeof(before));
          for (int k = 0; k < 3; ++k) {
            const PageId id = action == 2 ? pick(shared) : pick(own[t]);
            auto page = bm.FixPage(id);
            if (!page.ok()) {
              ++failures;
            } else if (action == 2 ? !shared_ok(id, page->data())
                                   : !verify_own(id, *page)) {
              ++failures;
            }
          }
          if (std::memcmp(before, held->data(), sizeof(before)) != 0 ||
              !verify_own(held_id, *held)) {
            ++failures;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  ASSERT_TRUE(bm.FlushAll().ok());
  uint8_t buffer[kPageSize];
  for (PageId id : shared) {
    ASSERT_TRUE((*file)->ReadPage(id, buffer).ok());
    EXPECT_TRUE(shared_ok(id, buffer)) << "page " << id;
  }
  for (const std::map<PageId, uint64_t>& shadow : shadows) {
    for (const auto& [id, stamp] : shadow) {
      ASSERT_TRUE((*file)->ReadPage(id, buffer).ok());
      uint64_t head, tail;
      stamp_of(buffer, &head, &tail);
      EXPECT_EQ(head, stamp) << "page " << id;
      EXPECT_EQ(tail, stamp) << "page " << id;
    }
  }
  EXPECT_GT(bm.eviction_count(), 1000u);  // eviction really was constant
}

TEST(StorageStressTest, RandomTreeSurvivesTinyPoolNavigation) {
  NodeStore::Options options;
  options.buffer_pages = 4;  // brutal
  auto store = NodeStore::CreateTemp(options);
  ASSERT_TRUE(store.ok());

  // A random document with text of many sizes (hitting the overflow
  // threshold from both sides).
  std::mt19937 rng(99);
  std::string xml = "<root>";
  std::vector<size_t> sizes;
  for (int i = 0; i < 200; ++i) {
    size_t len = std::uniform_int_distribution<size_t>(0, 6000)(rng);
    sizes.push_back(len);
    xml += "<t n='" + std::to_string(i) + "'>" + std::string(len, 'x') +
           "</t>";
  }
  xml += "</root>";
  auto info = LoadDocument(store->get(), "doc", xml);
  ASSERT_TRUE(info.ok()) << info.status().ToString();

  // Forward navigation with content checks.
  StoredNode root(store->get(), info->root);
  StoredNode t = *(*root.first_child()).first_child();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(t.valid()) << i;
    EXPECT_EQ(*(*t.first_attribute()).content(), std::to_string(i));
    EXPECT_EQ(t.string_value()->size(), sizes[static_cast<size_t>(i)]);
    t = *t.next_sibling();
  }
  EXPECT_FALSE(t.valid());

  // Backward navigation via prev links.
  StoredNode last = *(*root.first_child()).first_child();
  while ((*last.next_sibling()).valid()) last = *last.next_sibling();
  for (int i = 199; i >= 0; --i) {
    ASSERT_TRUE(last.valid());
    EXPECT_EQ(*(*last.first_attribute()).content(), std::to_string(i));
    last = *last.prev_sibling();
  }
}

TEST(StorageStressTest, ManySmallDocuments) {
  NodeStore::Options options;
  options.buffer_pages = 32;
  auto store = NodeStore::CreateTemp(options);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 100; ++i) {
    std::string name = "doc" + std::to_string(i);
    std::string xml =
        "<d n='" + std::to_string(i) + "'><v>" + std::to_string(i * i) +
        "</v></d>";
    ASSERT_TRUE(LoadDocument(store->get(), name, xml).ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());
  // All documents remain reachable and correct.
  for (int i = 0; i < 100; ++i) {
    auto info = (*store)->FindDocument("doc" + std::to_string(i));
    ASSERT_TRUE(info.ok());
    StoredNode root(store->get(), info->root);
    EXPECT_EQ(*root.string_value(), std::to_string(i * i));
  }
  EXPECT_EQ((*store)->documents().size(), 100u);
}

TEST(StorageStressTest, PinnedCursorOverflowFailsCleanly) {
  // Every open axis cursor keeps one page pinned. A plan deeper than the
  // buffer pool must fail with ResourceExhausted — never crash or
  // corrupt.
  NodeStore::Options options;
  options.buffer_pages = 2;
  auto store = NodeStore::CreateTemp(options);
  ASSERT_TRUE(store.ok());
  // Build a deep chain so navigation needs several concurrently pinned
  // pages (each element's subtree spills onto later pages).
  std::string xml;
  for (int i = 0; i < 40; ++i) {
    xml += "<e" + std::to_string(i) + " pad='" + std::string(500, 'p') +
           "'>";
  }
  for (int i = 39; i >= 0; --i) xml += "</e" + std::to_string(i) + ">";
  auto info = LoadDocument(store->get(), "doc", xml);
  // Either the load or a deep navigation may exhaust the pool; both must
  // surface a clean status.
  if (!info.ok()) {
    EXPECT_EQ(info.status().code(), StatusCode::kResourceExhausted);
    return;
  }
  StoredNode node(store->get(), info->root);
  // Walk down keeping every handle alive to force concurrent pins.
  std::vector<StoredNode> held;
  Status last = Status::OK();
  while (node.valid()) {
    held.push_back(node);
    auto child = node.first_child();
    if (!child.ok()) {
      last = child.status();
      break;
    }
    node = *child;
  }
  // Holding StoredNode values does not pin pages (they re-fix on use), so
  // the walk usually succeeds; the invariant under test is simply that
  // nothing crashed and any failure is the documented one.
  if (!last.ok()) {
    EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
  }
}

}  // namespace
}  // namespace natix::storage
