/**
 * @file
 * A thread-safe find-or-produce map: each value is produced once, by
 * the first thread that asks for it, and shared read-only with every
 * other asker.
 */

#ifndef SCIQ_COMMON_ONCE_MAP_HH
#define SCIQ_COMMON_ONCE_MAP_HH

#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace sciq {

/**
 * Producer election over a key → shared value map.  The first thread
 * to ask for a missing key becomes its producer (findOrBegin returns
 * nullptr to exactly that caller); later askers block until the
 * producer publish()es the value or cancel()s, after which one of them
 * is elected in turn.  A cancelled or failed production caches nothing.
 */
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class OnceMap
{
  public:
    using Ptr = std::shared_ptr<const Value>;

    /**
     * The value for `key`, blocking while another thread produces it.
     * Returns nullptr to exactly one caller per missing key; that
     * caller must publish() or cancel() the key.
     */
    Ptr
    findOrBegin(const Key &key)
    {
        std::unique_lock<std::mutex> lock(mu_);
        for (;;) {
            auto it = entries_.find(key);
            if (it == entries_.end()) {
                entries_.emplace(key, nullptr);  // claimed, in production
                return nullptr;
            }
            if (it->second)
                return it->second;
            cv_.wait(lock);
        }
    }

    /** Store `key`'s value, replacing any earlier one, and wake waiters. */
    Ptr
    publish(const Key &key, Ptr value)
    {
        std::lock_guard<std::mutex> lock(mu_);
        entries_[key] = value;
        cv_.notify_all();
        return value;
    }

    /** Give up producing `key`; a published value stays. */
    void
    cancel(const Key &key)
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it != entries_.end() && !it->second)
            entries_.erase(it);
        cv_.notify_all();
    }

    /**
     * findOrBegin, and when elected, publish `produce()`'s value.
     * `produced` reports whether this call ran `produce`.  An exception
     * from `produce` cancels the key and propagates.
     */
    template <typename Produce>
    Ptr
    get(const Key &key, Produce &&produce, bool *produced = nullptr)
    {
        if (produced)
            *produced = false;
        if (Ptr hit = findOrBegin(key))
            return hit;
        Ptr value;
        try {
            value = std::make_shared<const Value>(produce());
        } catch (...) {
            cancel(key);
            throw;
        }
        if (produced)
            *produced = true;
        return publish(key, std::move(value));
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    /** A null value marks a key whose producer has not published yet. */
    std::unordered_map<Key, Ptr, Hash> entries_;
};

} // namespace sciq

#endif // SCIQ_COMMON_ONCE_MAP_HH
