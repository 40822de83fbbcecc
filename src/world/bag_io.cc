#include "world/bag_io.hh"

#include <cstdint>
#include <fstream>
#include <type_traits>

#include "util/logging.hh"
#include "world/recorder.hh"

namespace av::world {

namespace {

constexpr std::uint32_t magic = 0x47425641; // "AVBG"
constexpr std::uint32_t version = 1;

/**
 * Every persisted channel in file order: its payload type, its tag
 * on the wire and the topic it replays on.
 */
template <class Fn>
void
forEachChannel(Fn &&fn)
{
    fn(std::type_identity<pc::PointCloud>(), 1, topics::pointsRaw);
    fn(std::type_identity<CameraFrame>(), 2, topics::imageRaw);
    fn(std::type_identity<GnssFix>(), 3, topics::gnss);
    fn(std::type_identity<ImuSample>(), 4, topics::imu);
}

/**
 * The record layout: one field list per type, walked by BinWriter
 * to save and by BinReader to load. Fields are raw little-endian
 * scalars in list order; a vector is a u32 count then its rows.
 */
template <class Ar, class T>
void
fields(Ar &ar, T &r)
{
    if constexpr (std::is_same_v<T, ros::Header>) {
        ar(r.seq, r.stamp, r.origins.lidar, r.origins.camera);
    } else if constexpr (std::is_same_v<T, pc::PointCloud>) {
        ar(r.stampNs, r.points);
    } else if constexpr (std::is_same_v<T, pc::Point>) {
        ar(r.x, r.y, r.z, r.intensity, r.ring);
    } else if constexpr (std::is_same_v<T, CameraFrame>) {
        ar(r.width, r.height, r.truth);
    } else if constexpr (std::is_same_v<T, VisibleObject>) {
        ar(r.truthId, r.cls, r.range, r.bearing, r.imageHeightPx,
           r.worldPos.x, r.worldPos.y, r.worldVelocity.x,
           r.worldVelocity.y, r.occlusion);
    } else if constexpr (std::is_same_v<T, GnssFix>) {
        ar(r.position.x, r.position.y, r.position.z, r.horizontalErr);
    } else {
        static_assert(std::is_same_v<T, ImuSample>);
        ar(r.yawRate, r.accelX, r.speed);
    }
}

/** A message: header, serialized size (u64), payload. */
template <class Ar, class T>
void
fields(Ar &ar, ros::Stamped<T> &msg)
{
    static_assert(sizeof msg.bytes == sizeof(std::uint64_t));
    ar(msg.header, msg.bytes, msg.data);
}

/** Bytes one flat record of T occupies on the wire. */
template <class T>
std::uint64_t
wireSize()
{
    std::uint64_t bytes = 0;
    auto count = [&bytes]<class... Ts>(Ts &...values) {
        static_assert((std::is_scalar_v<Ts> && ...));
        bytes += (sizeof values + ...);
    };
    T record;
    fields(count, record);
    return bytes;
}

/** Writes field lists as raw bytes. */
class BinWriter
{
  public:
    explicit BinWriter(std::ostream &os) : os_(os) {}

    template <class... Ts>
    void operator()(const Ts &...values)
    {
        (put(values), ...);
    }

  private:
    template <class T>
        requires std::is_scalar_v<T>
    void put(const T &value)
    {
        os_.write(reinterpret_cast<const char *>(&value), sizeof value);
    }

    template <class T>
    void put(const std::vector<T> &rows)
    {
        put(static_cast<std::uint32_t>(rows.size()));
        for (const T &row : rows)
            put(row);
    }

    // The field list is shared with BinReader, so it takes mutable
    // references; the writer only reads through them.
    template <class T>
    void put(const T &record)
    {
        fields(*this, const_cast<T &>(record));
    }

    std::ostream &os_;
};

/**
 * Reads field lists back, failing the stream on a short read, a
 * vector count the remaining bytes cannot hold (a truncated or
 * bit-flipped count must fail the load, not drive a multi-gigabyte
 * resize()) or an ActorClass outside the enum.
 */
class BinReader
{
  public:
    explicit BinReader(std::istream &is) : is_(is)
    {
        const std::istream::pos_type here = is_.tellg();
        is_.seekg(0, std::ios::end);
        end_ = is_.tellg();
        is_.seekg(here);
    }

    bool ok() const { return static_cast<bool>(is_); }

    template <class... Ts>
    void operator()(Ts &...values)
    {
        (get(values), ...);
    }

  private:
    void fail() { is_.setstate(std::ios::failbit); }

    template <class T>
        requires std::is_scalar_v<T>
    void get(T &value)
    {
        is_.read(reinterpret_cast<char *>(&value), sizeof value);
    }

    void get(ActorClass &cls)
    {
        std::uint8_t raw = 0;
        get(raw);
        if (raw > static_cast<std::uint8_t>(ActorClass::Cyclist))
            fail();
        cls = static_cast<ActorClass>(raw);
    }

    template <class T>
    void get(std::vector<T> &rows)
    {
        std::uint32_t count = 0;
        get(count);
        const auto left =
            static_cast<std::uint64_t>(end_ - is_.tellg());
        if (count > left / wireSize<T>())
            fail();
        rows.resize(is_ ? count : 0);
        for (T &row : rows)
            get(row);
    }

    template <class T>
    void get(T &record)
    {
        fields(*this, record);
    }

    std::istream &is_;
    std::istream::pos_type end_;
};

} // namespace

bool
saveSensorBag(const ros::Bag &bag, const std::string &path)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        return false;
    BinWriter out(os);
    out(magic, version);
    forEachChannel([&]<class T>(std::type_identity<T>,
                                std::uint32_t tag, const char *topic) {
        for (const ros::BagChannelBase *base : bag.channels()) {
            const auto *channel =
                dynamic_cast<const ros::BagChannel<T> *>(base);
            if (base->name() != topic || !channel ||
                channel->count() == 0)
                continue;
            out(tag, static_cast<std::uint64_t>(channel->count()));
            for (const auto &msg : channel->messages())
                out(msg);
        }
    });
    return static_cast<bool>(os);
}

bool
loadSensorBag(ros::Bag &bag, const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        util::warn("sensor bag '", path, "': cannot open for read");
        return false;
    }
    BinReader in(is);
    std::uint32_t file_magic = 0, file_version = 0;
    in(file_magic, file_version);
    if (file_magic != magic) {
        util::warn("sensor bag '", path,
                   "': bad magic (not an AVBG file)");
        return false;
    }
    if (!in.ok() || file_version != version) {
        util::warn("sensor bag '", path,
                   "': unsupported format version ", file_version,
                   " (expected ", version, ")");
        return false;
    }

    // Any byte after a complete channel starts a new channel header,
    // so a short trailing tag is a truncation, not a clean end.
    while (is.peek() != std::char_traits<char>::eof()) {
        std::uint32_t tag = 0;
        std::uint64_t count = 0;
        in(tag, count);
        if (!in.ok()) {
            util::warn("sensor bag '", path,
                       "': truncated channel header (tag ", tag, ")");
            return false;
        }
        bool known = false;
        std::uint64_t parsed = 0;
        forEachChannel([&]<class T>(std::type_identity<T>,
                                    std::uint32_t channel_tag,
                                    const char *topic) {
            if (channel_tag != tag)
                return;
            known = true;
            for (; parsed < count; ++parsed) {
                ros::Stamped<T> msg;
                in(msg);
                if (!in.ok())
                    return;
                bag.channel<T>(topic).add(std::move(msg));
            }
        });
        if (!known) {
            util::warn("sensor bag '", path, "': unknown channel tag ",
                       tag);
            return false;
        }
        if (parsed != count) {
            util::warn("sensor bag '", path,
                       "': truncated or corrupt record ", parsed,
                       " of ", count, " in channel tag ", tag);
            return false;
        }
    }
    return true;
}

} // namespace av::world
