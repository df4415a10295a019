#include "common/file_io.h"

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "common/error.h"

namespace fs = std::filesystem;

namespace mapp {

bool
writeFileAtomic(const std::string& path, std::string_view contents)
{
    if (path.empty())
        return false;

    // Unique temp name per writer so concurrent writers of one target
    // never clobber each other's partial file; the pid guards against
    // two processes sharing a sequence counter.
    static std::atomic<std::uint64_t> tempSeq{0};
    const std::string temp =
        path + ".tmp." +
        std::to_string(tempSeq.fetch_add(1, std::memory_order_relaxed)) +
        "." + std::to_string(::getpid());

    {
        std::ofstream out(temp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out.write(contents.data(),
                  static_cast<std::streamsize>(contents.size()));
        out.close();
        if (!out.good()) {
            std::error_code ec;
            fs::remove(temp, ec);
            return false;
        }
    }

    std::error_code ec;
    fs::rename(temp, path, ec);
    if (ec) {
        fs::remove(temp, ec);
        return false;
    }
    return true;
}

std::string
readWholeFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        raise({ErrorCode::Io, "cannot open file", {path, 0, ""}});
    std::ostringstream ss;
    ss << in.rdbuf();
    if (in.bad())
        raise({ErrorCode::Io, "read failed", {path, 0, ""}});
    return std::move(ss).str();
}

}  // namespace mapp
